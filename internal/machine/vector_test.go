package machine_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/isa"
	"rockcress/internal/machine"
	"rockcress/internal/prog"
	"rockcress/internal/stats"
	"rockcress/internal/trace"
)

// TestExpanderBranchInMicrothread: the expander may execute uniform
// branches inside a microthread (§3.2); it pauses fetch and never forwards
// them, so the lanes simply see the loop body repeated.
func TestExpanderBranchInMicrothread(t *testing.T) {
	cfg := config.ManycoreDefault()
	groups, err := config.MakeGroups(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 5
	const out = 0x9000

	b := prog.New("mt-branch")
	gid, lane, none := b.Int(), b.Int(), b.Int()
	b.Csrr(gid, isa.CsrGroupID)
	b.Csrr(lane, isa.CsrLaneID)
	b.Li(none, -1)
	b.Beq(gid, none, "idle")
	// Lane's output address: (gid*4+lane)*4 + out.
	addr, t1 := b.Int(), b.Int()
	b.Slli(addr, gid, 2)
	b.Add(addr, addr, lane)
	b.Slli(addr, addr, 2)
	b.Addi(addr, addr, out)
	_ = t1
	acc, i, bound := b.Int(), b.Int(), b.Int()
	mt, _ := b.Microthread(func() {
		b.Li(acc, 0)
		b.Li(i, 0)
		b.Li(bound, iters)
		b.Label("mt_loop")
		b.Addi(acc, acc, 1)
		b.Addi(i, i, 1)
		b.Blt(i, bound, "mt_loop") // expander-only; lanes see 5 bodies
		b.Sw(acc, addr, 0)
	})
	b.ConfigFrames(1, 1)
	b.Vectorize()
	b.VIssueAt(mt)
	b.Devectorize("after")
	b.Label("after")
	b.Barrier()
	b.Halt()
	b.Label("idle")
	b.Halt()

	m := runProgram(t, cfg, groups, b, nil)
	for _, g := range groups {
		for li := range g.Lanes {
			got := m.Global.ReadWord(uint32(out + 4*(g.ID*4+li)))
			if got != iters {
				t.Fatalf("group %d lane %d: acc=%d, want %d", g.ID, li, got, iters)
			}
		}
	}
}

// TestPredicationOnLanes: per-lane predication masks both ALU results and
// stores; re-enabling with PRED_EQ(x0,x0) restores execution (§2.4).
func TestPredicationOnLanes(t *testing.T) {
	cfg := config.ManycoreDefault()
	groups, err := config.MakeGroups(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	const out = 0xa000
	b := prog.New("pred")
	gid, lane, none := b.Int(), b.Int(), b.Int()
	b.Csrr(gid, isa.CsrGroupID)
	b.Csrr(lane, isa.CsrLaneID)
	b.Li(none, -1)
	b.Beq(gid, none, "idle")
	addr := b.Int()
	b.Slli(addr, gid, 2)
	b.Add(addr, addr, lane)
	b.Slli(addr, addr, 2)
	b.Addi(addr, addr, out)
	val, two := b.Int(), b.Int()
	mt, _ := b.Microthread(func() {
		b.Li(val, 100)
		b.Li(two, 2)
		// Only even lanes (lane & 1 == 0) take the update.
		odd := b.Int()
		b.Andi(odd, lane, 1)
		b.PredEq(odd, isa.X0) // pred on for even lanes
		b.Addi(val, val, 11)
		b.PredOn()
		b.Sw(val, addr, 0) // all lanes store their (masked) value
	})
	b.ConfigFrames(1, 1)
	b.Vectorize()
	b.VIssueAt(mt)
	b.Devectorize("after")
	b.Label("after")
	b.Barrier()
	b.Halt()
	b.Label("idle")
	b.Halt()

	m := runProgram(t, cfg, groups, b, nil)
	for _, g := range groups {
		for li := range g.Lanes {
			got := m.Global.ReadWord(uint32(out + 4*(g.ID*4+li)))
			want := uint32(100)
			if li%2 == 0 {
				want = 111
			}
			if got != want {
				t.Fatalf("group %d lane %d: %d, want %d", g.ID, li, got, want)
			}
		}
	}
}

// TestRemoteStoreShuffle: lanes shuffle values into a neighbour lane's
// scratchpad via remote stores (§2.4); the target observes them after the
// devec + barrier (which double as the store fence).
func TestRemoteStoreShuffle(t *testing.T) {
	cfg := config.ManycoreDefault()
	groups, err := config.MakeGroups(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := prog.New("shuffle")
	gid, lane, none := b.Int(), b.Int(), b.Int()
	b.Csrr(gid, isa.CsrGroupID)
	b.Csrr(lane, isa.CsrLaneID)
	b.Li(none, -1)
	b.Beq(gid, none, "idle")
	// Each lane precomputes the TILE id of the next lane (rotate by one).
	// The launcher-provided group layout is visible to software here the
	// same way the paper's runtime computes vconfig masks.
	target, off := b.Int(), b.Int()
	// Build a tiny in-memory lane->tile table per group before vectorizing:
	// every tile stores its own id at table[gid*4+lane].
	const table = 0xb000
	tid := b.Int()
	b.Csrr(tid, isa.CsrCoreID)
	t1 := b.Int()
	b.Slli(t1, gid, 2)
	b.Add(t1, t1, lane)
	b.Slli(t1, t1, 2)
	b.Addi(t1, t1, table)
	b.Sw(tid, t1, 0)
	b.Barrier()
	// target = table[gid*4 + (lane+1)%4]
	nxt := b.Int()
	b.Addi(nxt, lane, 1)
	b.Andi(nxt, nxt, 3)
	b.Slli(t1, gid, 2)
	b.Add(t1, t1, nxt)
	b.Slli(t1, t1, 2)
	b.Addi(t1, t1, table)
	b.Lw(target, t1, 0)
	b.Li(off, 512) // scratchpad slot outside the frame region
	mt, _ := b.Microthread(func() {
		v := b.Int()
		b.Addi(v, lane, 1000)
		b.SwRemote(v, off, 0, target)
	})
	b.ConfigFrames(1, 1)
	b.Vectorize()
	b.VIssueAt(mt)
	b.Devectorize("after")
	b.Label("after")
	b.Barrier()
	// Each lane reads its scratchpad slot and publishes it globally.
	res := b.Int()
	b.LwSp(res, off, 0)
	b.Slli(t1, gid, 2)
	b.Add(t1, t1, lane)
	b.Slli(t1, t1, 2)
	b.Addi(t1, t1, 0xc000)
	b.Sw(res, t1, 0)
	b.Barrier()
	b.Halt()
	b.Label("idle")
	b.Halt()

	m := runProgram(t, cfg, groups, b, nil)
	for _, g := range groups {
		for li := range g.Lanes {
			got := m.Global.ReadWord(uint32(0xc000 + 4*(g.ID*4+li)))
			// Lane li receives from the lane whose (lane+1)%4 == li.
			want := uint32(1000 + (li+3)%4)
			if got != want {
				t.Fatalf("group %d lane %d: got %d, want %d", g.ID, li, got, want)
			}
		}
	}
}

// TestGroupReformation: groups can disband and re-form repeatedly (one
// vectorize/devec round per kernel, §6.1).
func TestGroupReformation(t *testing.T) {
	cfg := config.ManycoreDefault()
	groups, err := config.MakeGroups(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 4
	const out = 0xd000
	b := prog.New("reform")
	gid, lane, none := b.Int(), b.Int(), b.Int()
	b.Csrr(gid, isa.CsrGroupID)
	b.Csrr(lane, isa.CsrLaneID)
	b.Li(none, -1)
	b.Beq(gid, none, "idle")
	addr := b.Int()
	b.Slli(addr, gid, 2)
	b.Add(addr, addr, lane)
	b.Slli(addr, addr, 2)
	b.Addi(addr, addr, out)
	acc := b.Int()
	mtInit, _ := b.Microthread(func() { b.Li(acc, 0) })
	mtAdd, _ := b.Microthread(func() { b.Addi(acc, acc, 1) })
	mtStore, _ := b.Microthread(func() { b.Sw(acc, addr, 0) })
	k, bound := b.Int(), b.Int()
	b.ConfigFrames(1, 1)
	b.Vectorize()
	b.VIssueAt(mtInit)
	b.Devectorize("r0")
	b.Label("r0")
	b.Barrier()
	b.Li(k, 0)
	b.Li(bound, rounds)
	b.Label("round")
	b.ConfigFrames(1, 1)
	b.Vectorize()
	b.VIssueAt(mtAdd)
	b.Devectorize("rk")
	b.Label("rk")
	b.Barrier()
	b.Addi(k, k, 1)
	b.Blt(k, bound, "round")
	b.ConfigFrames(1, 1)
	b.Vectorize()
	b.VIssueAt(mtStore)
	b.Devectorize("fin")
	b.Label("fin")
	b.Barrier()
	b.Halt()
	b.Label("idle")
	b.Halt()

	m := runProgram(t, cfg, groups, b, nil)
	for _, g := range groups {
		for li := range g.Lanes {
			got := m.Global.ReadWord(uint32(out + 4*(g.ID*4+li)))
			if got != rounds {
				t.Fatalf("group %d lane %d: %d rounds, want %d", g.ID, li, got, rounds)
			}
		}
	}
}

// TestDeadlockWatchdog: a program whose group never fully forms (one lane
// halts early) must be caught by the watchdog, not hang — and the failed run
// must hand back the same counter spine a completed one does: Cycles at the
// abort cycle, the NoC/DRAM totals, telemetry windows that sum to them, and
// all of it independent of whether an observer was attached.
func TestDeadlockWatchdog(t *testing.T) {
	cfg := config.ManycoreDefault()
	groups, err := config.MakeGroups(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := prog.New("stuck")
	addr, word := b.Int(), b.Int()
	b.Li(addr, 0x1000)
	b.Lw(word, addr, 0) // memory traffic before the hang, so the totals are nonzero
	lane, none := b.Int(), b.Int()
	b.Csrr(lane, isa.CsrLaneID)
	b.Li(none, 2)
	b.Beq(lane, none, "defector") // lane 2 never joins
	gid := b.Int()
	b.Csrr(gid, isa.CsrGroupID)
	b.Li(none, -1)
	b.Beq(gid, none, "defector")
	b.ConfigFrames(1, 1)
	b.Vectorize()
	b.Devectorize("x")
	b.Label("x")
	b.Barrier()
	b.Halt()
	b.Label("defector")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	run := func(sink *trace.Sink) (*machine.Machine, stats.Machine) {
		m, err := machine.New(machine.Params{Cfg: cfg, Prog: p, Groups: groups, Trace: sink})
		if err != nil {
			t.Fatal(err)
		}
		st, err := m.Run(2_000_000)
		if !errors.Is(err, machine.ErrDeadlock) {
			t.Fatalf("defecting lane surfaced as %v, want a deadlock error", err)
		}
		got := *st
		got.WallNs = 0
		return m, got
	}
	var samples bytes.Buffer
	sink := trace.NewSink(trace.Config{SampleEvery: 4096, SampleTo: &samples})
	m, st := run(sink)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Cycles != m.Now() || st.Cycles == 0 {
		t.Errorf("failed run: Stats.Cycles = %d, machine stopped at %d", st.Cycles, m.Now())
	}
	if st.NocFlits == 0 || st.DramReads == 0 {
		t.Errorf("failed run: NoC flits %d, DRAM reads %d; want the traffic the loads caused",
			st.NocFlits, st.DramReads)
	}
	ws := readWindows(t, samples.Bytes(), st.Cycles)
	if !ws[len(ws)-1].Truncated {
		t.Error("final window of a failed run not marked truncated")
	}
	checkConservation(t, ws, &st)
	if _, bare := run(nil); !reflect.DeepEqual(bare, st) {
		t.Errorf("failed run's stats depend on the sampler:\n with    %+v\n without %+v", st, bare)
	}
}
