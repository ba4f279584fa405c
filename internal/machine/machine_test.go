package machine_test

import (
	"math"
	"reflect"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/isa"
	"rockcress/internal/machine"
	"rockcress/internal/prog"
)

const testBudget = 2_000_000

func runProgram(t *testing.T, cfg config.Manycore, groups []*config.Group, b *prog.Builder,
	init func(m *machine.Machine)) *machine.Machine {
	t.Helper()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m, err := machine.New(machine.Params{Cfg: cfg, Prog: p, Groups: groups})
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	if init != nil {
		init(m)
	}
	if _, err := m.Run(testBudget); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m
}

// TestMIMDStores has every core write a distinct value to global memory.
func TestMIMDStores(t *testing.T) {
	cfg := config.ManycoreDefault()
	const base = 0x1000
	b := prog.New("mimd-stores")
	tid := b.Int()
	addr := b.Int()
	val := b.Int()
	b.Csrr(tid, isa.CsrCoreID)
	b.Slli(addr, tid, 2)
	b.Addi(addr, addr, base)
	b.Slli(val, tid, 1)
	b.Addi(val, val, 7) // val = 2*tid + 7
	b.Sw(val, addr, 0)
	b.Barrier()
	b.Halt()

	m := runProgram(t, cfg, nil, b, nil)
	for tidv := 0; tidv < cfg.Cores; tidv++ {
		got := m.Global.ReadWord(uint32(base + 4*tidv))
		want := uint32(2*tidv + 7)
		if got != want {
			t.Errorf("core %d: mem = %d, want %d", tidv, got, want)
		}
	}
	if m.Stats.Cycles <= 0 {
		t.Fatal("no cycles recorded")
	}
}

// TestLoadRoundTrip stores per-core data, barriers, then loads a
// neighbour's word and re-stores it: exercises LLC hits, misses, and
// store-to-load ordering through the banks.
func TestLoadRoundTrip(t *testing.T) {
	cfg := config.ManycoreDefault()
	const src, dst = 0x2000, 0x4000
	b := prog.New("load-roundtrip")
	tid := b.Int()
	n := b.Int()
	nb := b.Int()
	a := b.Int()
	v := b.Int()
	b.Csrr(tid, isa.CsrCoreID)
	b.Csrr(n, isa.CsrNumCores)
	// mem[src + 4*tid] = tid * 5
	b.Slli(a, tid, 2)
	b.Addi(a, a, src)
	b.Slli(v, tid, 2)
	b.Add(v, v, tid) // v = 5*tid
	b.Sw(v, a, 0)
	b.Barrier()
	// neighbour = (tid+1) mod n
	b.Addi(nb, tid, 1)
	b.Rem(nb, nb, n)
	b.Slli(a, nb, 2)
	b.Addi(a, a, src)
	b.Lw(v, a, 0)
	b.Slli(a, tid, 2)
	b.Addi(a, a, dst)
	b.Sw(v, a, 0)
	b.Barrier()
	b.Halt()

	m := runProgram(t, cfg, nil, b, nil)
	for tidv := 0; tidv < cfg.Cores; tidv++ {
		want := uint32(5 * ((tidv + 1) % cfg.Cores))
		got := m.Global.ReadWord(uint32(dst + 4*tidv))
		if got != want {
			t.Errorf("core %d: got %d, want %d", tidv, got, want)
		}
	}
}

// TestVectorGroupDAE forms V4 groups and runs a full decoupled-access
// round: the scalar core group-loads a slice of the input, lanes consume
// their frame and store input+1 to the output.
func TestVectorGroupDAE(t *testing.T) {
	cfg := config.ManycoreDefault()
	groups, err := config.MakeGroups(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) == 0 {
		t.Fatal("no groups formed")
	}
	vlen := 4
	nElems := len(groups) * vlen
	const in, out = 0x8000, 0x9000

	b := prog.New("vgroup-dae")
	gid := b.Int()
	lane := b.Int()
	none := b.Int()
	outAddr := b.Int()
	tmp := b.Int()
	b.Csrr(gid, isa.CsrGroupID)
	b.Csrr(lane, isa.CsrLaneID)
	b.Li(none, -1)
	b.Beq(gid, none, "idle")
	// Per-lane output address (lanes compute it before vectorizing; the
	// scalar core computes a garbage value it never uses).
	b.Slli(outAddr, gid, 2)
	b.Mv(tmp, lane)
	b.Slli(tmp, tmp, 2)
	b.Slli(outAddr, outAddr, 2) // gid*16
	b.Add(outAddr, outAddr, tmp)
	b.Addi(outAddr, outAddr, out)
	b.ConfigFrames(1, 2)
	b.Vectorize()
	// --- scalar stream from here ---
	fone := b.Fp()
	frameBase := b.Int()
	fv := b.Fp()
	mt, _ := b.Microthread(func() {
		b.FrameStart(frameBase)
		b.FlwSp(fv, frameBase, 0)
		b.Fadd(fv, fv, fone)
		b.Fsw(fv, outAddr, 0)
		b.Remem()
	})
	// Lanes need fone=1.0 before the microthread runs; set it in an init
	// microthread (per-lane FP state survives across invocations).
	initMT, _ := b.Microthread(func() { b.FliF(fone, 1.0) })
	b.VIssueAt(initMT)
	addrReg := b.Int()
	offReg := b.Int()
	b.Slli(addrReg, gid, 4) // gid * vlen * 4
	b.Addi(addrReg, addrReg, in)
	b.Li(offReg, 0)
	b.VLoad(isa.VloadGroup, addrReg, offReg, 0, 1, true)
	b.VIssueAt(mt)
	b.Devectorize("after")
	b.Label("after")
	b.Barrier()
	b.Halt()
	b.Label("idle")
	b.Barrier()
	b.Halt()

	m := runProgram(t, cfg, groups, b, func(m *machine.Machine) {
		for i := 0; i < nElems; i++ {
			m.Global.WriteWord(uint32(in+4*i), math.Float32bits(float32(i)*0.5))
		}
	})
	for i := 0; i < nElems; i++ {
		got := math.Float32frombits(m.Global.ReadWord(uint32(out + 4*i)))
		want := float32(i)*0.5 + 1
		if got != want {
			t.Errorf("elem %d: got %g, want %g", i, got, want)
		}
	}
	// Vector lanes fetch only the independent-mode pre/postamble; in vector
	// mode their I-caches are off, so they must see strictly fewer accesses
	// than the expander (which also fetches the microthreads).
	for _, g := range groups {
		exp := m.Stats.Cores[g.Expander].ICacheAccesses
		for _, lane := range g.Lanes {
			if lane == g.Expander {
				continue
			}
			acc := m.Stats.Cores[lane].ICacheAccesses
			if acc >= exp {
				t.Errorf("lane %d: %d icache accesses, expander only %d", lane, acc, exp)
			}
			if recv := m.Stats.Cores[lane].InetReceives; recv == 0 {
				t.Errorf("lane %d executed no forwarded instructions", lane)
			}
		}
	}
}

// TestRunUntilMatchesStepLoop pins the bounded run cycle for cycle: a machine
// advanced by RunUntil through an irregular series of stops — consecutive
// cycles, a repeated stop, a watchdog-checkpoint multiple, one far past the
// end — is, at every stop, where a machine single-stepped to the same cycle
// is: same Now(), same counters once collected. Fast-forward is on in the
// bounded run and absent from the Step loop, so the two skip counters are the
// only fields allowed to differ. Past the last halt RunUntil returns early
// and without error. The fault plans hold the jump to the fault stack's gate:
// a flip that poisons a frame (replay start -> verify, every cycle of which
// the serial hook must see) and the golden two-kill schedule (group breaks
// mutating parked cores).
func TestRunUntilMatchesStepLoop(t *testing.T) {
	hw := config.ManycoreDefault()
	v4, err := config.MakeGroups(hw, 4)
	if err != nil {
		t.Fatal(err)
	}
	victim := v4[0].Lanes[len(v4[0].Lanes)-1]
	cases := []struct {
		name, cfg string
		plan      *fault.Plan
		replays   bool // the plan must poison a frame and see it replayed
	}{
		{"mvt/NV", "NV", nil, false},
		{"mvt/V4", "V4", nil, false},
		{"mvt/V4+flip", "V4", &fault.Plan{Events: []fault.Event{
			{Kind: fault.FlipSpadWord, Cycle: 2758, Tile: victim, Offset: 0, Bit: 30}}}, true},
		{"mvt/V4+kills", "V4", fault.KillPlan(0x5eed, 2, hw.Cores, 800, 101), false},
	}
	for _, tc := range cases {
		a := buildMachine(t, "mvt", tc.cfg, machine.Params{Faults: tc.plan})
		b := buildMachine(t, "mvt", tc.cfg, machine.Params{Faults: tc.plan})
		const pastEnd = 1 << 20
		for _, stop := range []int64{0, 1, 2, 3, 57, 57, 400, 800, 801, 901, 902, 1023, 1024, 1025, 2048, 2500,
			2758, 2759, 2760, 2800, 2900, pastEnd} {
			if err := a.RunUntil(stop); err != nil {
				t.Fatalf("%s: RunUntil(%d): %v", tc.name, stop, err)
			}
			if a.Now() != stop && !allHalted(a) {
				t.Fatalf("%s: RunUntil(%d) stopped at cycle %d with cores still running", tc.name, stop, a.Now())
			}
			for b.Now() < a.Now() {
				b.Step()
			}
			a.Collect()
			b.Collect()
			sa, sb := *a.Stats, *b.Stats
			sa.FastForwards, sa.SkippedCycles, sa.WallNs = 0, 0, 0
			sb.FastForwards, sb.SkippedCycles, sb.WallNs = 0, 0, 0
			if !reflect.DeepEqual(sa, sb) {
				t.Fatalf("%s at cycle %d: RunUntil and the Step loop disagree:\n%+v\nvs\n%+v", tc.name, a.Now(), sa, sb)
			}
		}
		if a.Now() >= pastEnd {
			t.Errorf("%s: RunUntil ran to cycle %d, past every core's halt", tc.name, a.Now())
		}
		if a.Stats.FastForwards == 0 {
			t.Errorf("%s: the bounded run never fast-forwarded; the comparison did not cover skips", tc.name)
		}
		if b.Stats.FastForwards != 0 {
			t.Errorf("%s: the Step loop fast-forwarded %d times", tc.name, b.Stats.FastForwards)
		}
		if tc.replays && a.Stats.Cores[victim].FrameReplays == 0 {
			t.Errorf("%s: the flip poisoned no frame; the comparison did not cover a replay", tc.name)
		}
	}
}

func allHalted(m *machine.Machine) bool {
	for tile := 0; tile < m.Cfg.Cores; tile++ {
		if !m.Core(tile).Halted() {
			return false
		}
	}
	return true
}
