package machine_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/isa"
	"rockcress/internal/machine"
	"rockcress/internal/prog"
)

// TestSpadErrCycleContext checks the structured scratchpad error carries the
// cycle the corruption *occurred*, not the (later) cycle the watchdog swept
// it up: tile 5 overflows its frame counter in the first few cycles while
// tile 0 spins long enough that the default 1024-cycle component check is
// the thing that surfaces the error.
func TestSpadErrCycleContext(t *testing.T) {
	cfg := config.ManycoreDefault()
	b := prog.New("spad-err-cycle")
	tid := b.Int()
	five := b.Int()
	b.Csrr(tid, isa.CsrCoreID)
	b.Li(five, 5)
	b.Bne(tid, five, "spin")
	b.ConfigFrames(1, 2)
	addr := b.Int()
	off := b.Int()
	b.Li(addr, 0x4000)
	b.Li(off, 0)
	b.VLoad(isa.VloadSelf, addr, off, 0, 1, false)
	b.VLoad(isa.VloadSelf, addr, off, 0, 1, false)
	b.Jmp("done")
	b.Label("spin")
	// Keep every other tile busy past the first component check so the
	// machine cannot finish before detection.
	i := b.Int()
	b.ForI(i, 0, 2000, 1, func() {})
	b.Label("done")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m, err := machine.New(machine.Params{Cfg: cfg, Prog: p})
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	_, runErr := m.Run(testBudget)
	if runErr == nil {
		t.Fatal("expected a frame-overflow error")
	}
	var fe *machine.FaultError
	if !errors.As(runErr, &fe) {
		t.Fatalf("error is not a *FaultError: %v", runErr)
	}
	if fe.Tile != 5 {
		t.Errorf("FaultError.Tile = %d, want 5", fe.Tile)
	}
	if !strings.Contains(runErr.Error(), "overflow") {
		t.Errorf("error does not mention overflow: %v", runErr)
	}
	// The overflow happens within the first few dozen cycles; detection waits
	// for the first DefaultCheckEvery sweep. The error must report the former.
	if fe.Cycle < 0 || fe.Cycle >= machine.DefaultCheckEvery {
		t.Errorf("FaultError.Cycle = %d, want the occurrence cycle (< %d)", fe.Cycle, machine.DefaultCheckEvery)
	}
	if fe.Cycle >= m.Now() {
		t.Errorf("FaultError.Cycle = %d not before detection at cycle %d", fe.Cycle, m.Now())
	}
}

// TestReplayBackoffBoundsFastForward drives the run loop's jump into the one
// serial hook with its own clock. One V4 group consumes a two-word frame
// while the other 59 tiles sit parked in the barrier; a first flip poisons
// the frame, and a second — swept over the replay's refill, where some cycle
// finds one word back and the other still in flight — poisons it again, so
// the replay manager backs off for 32 cycles with nothing in the mesh, the
// banks or DRAM and every shard parked. Only the fault stack's gate keeps
// the jump from sailing past the retry; Run must land on the Step loop's
// cycle for every flip cycle swept.
func TestReplayBackoffBoundsFastForward(t *testing.T) {
	cfg := config.ManycoreDefault()
	groups, err := config.MakeGroups(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	groups = groups[:1]
	victim := groups[0].Lanes[len(groups[0].Lanes)-1]
	// Two lines on banks of opposite LLC rows, so a refill's two words come
	// back cycles apart.
	const inA, inB, out = 0x8000, 0x8000 + 64*8, 0x9000

	b := prog.New("replay-backoff")
	gid, lane, none, outAddr := b.Int(), b.Int(), b.Int(), b.Int()
	b.Csrr(gid, isa.CsrGroupID)
	b.Csrr(lane, isa.CsrLaneID)
	b.Li(none, -1)
	b.Beq(gid, none, "idle")
	b.Slli(outAddr, lane, 2)
	b.Addi(outAddr, outAddr, out)
	b.ConfigFrames(2, 2)
	b.Vectorize()
	frameBase, f0, f1 := b.Int(), b.Fp(), b.Fp()
	busy, _ := b.Microthread(func() {
		for i := 0; i < 8; i++ {
			b.Fadd(f1, f1, f1)
		}
	})
	consume, _ := b.Microthread(func() {
		b.FrameStart(frameBase)
		b.FlwSp(f0, frameBase, 0)
		b.FlwSp(f1, frameBase, 4)
		b.Fadd(f0, f0, f1)
		b.Fsw(f0, outAddr, 0)
		b.Remem()
	})
	addr, off := b.Int(), b.Int()
	b.Li(addr, inA)
	b.Li(off, 0)
	b.VLoad(isa.VloadGroup, addr, off, 0, 1, true)
	b.Li(addr, inB)
	b.Li(off, 4)
	b.VLoad(isa.VloadGroup, addr, off, 0, 1, true)
	// Keep the lanes busy long past the fill, so the first flip finds the
	// frame full and unopened.
	for i := 0; i < 40; i++ {
		b.VIssueAt(busy)
	}
	b.VIssueAt(consume)
	b.Devectorize("after")
	b.Label("after")
	b.Barrier()
	b.Halt()
	b.Label("idle")
	b.Barrier()
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	build := func(events ...fault.Event) *machine.Machine {
		var plan *fault.Plan
		if len(events) > 0 {
			plan = &fault.Plan{Events: events}
		}
		m, err := machine.New(machine.Params{Cfg: cfg, Prog: p, Groups: groups, Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	stepUntil := func(m *machine.Machine, done func() bool) int64 {
		for !done() {
			if m.Now() > 5000 {
				t.Fatalf("no progress by cycle %d", m.Now())
			}
			m.Step()
		}
		return m.Now()
	}

	m := build()
	full := stepUntil(m, func() bool { return m.Spad(victim).FullFrames() > 0 })
	first := fault.Event{Kind: fault.FlipSpadWord, Cycle: full + 4, Tile: victim, Offset: 0, Bit: 30}
	m = build(first)
	poisoned := stepUntil(m, func() bool { return m.Stats.Cores[victim].FramePoisons > 0 })

	retried := 0
	for cycle := poisoned; cycle < poisoned+48; cycle++ {
		for _, offset := range []uint32{0, 4} {
			second := fault.Event{Kind: fault.FlipSpadWord, Cycle: cycle, Tile: victim, Offset: offset, Bit: 29}
			a, s := build(first, second), build(first, second)
			if err := a.RunUntil(1 << 20); err != nil {
				t.Fatalf("second flip @%d o%d: %v", cycle, offset, err)
			}
			stepUntil(s, func() bool { return allHalted(s) })
			a.Collect()
			s.Collect()
			sa, ss := *a.Stats, *s.Stats
			if sa.Cores[victim].ReplayRetries > 0 {
				retried++
			}
			sa.FastForwards, sa.SkippedCycles = 0, 0
			if !reflect.DeepEqual(sa, ss) {
				t.Fatalf("second flip @%d o%d: Run ends at cycle %d (%d retries), the Step loop at %d (%d)",
					cycle, offset, sa.Cycles, sa.Cores[victim].ReplayRetries, ss.Cycles, ss.Cores[victim].ReplayRetries)
			}
		}
	}
	if retried == 0 {
		t.Error("no swept flip re-poisoned the refill; the retry backoff was never reached")
	}
}
