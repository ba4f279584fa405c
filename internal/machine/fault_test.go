package machine_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/isa"
	"rockcress/internal/lifecycle"
	"rockcress/internal/machine"
	"rockcress/internal/prog"
)

// buildV4DAE emits the TestVectorGroupDAE program with a recovery point:
// survivors of a broken group jump to "idle" and halt cleanly. Rebuilt per
// run because builders are single-use.
func buildV4DAE(t *testing.T) *isa.Program {
	t.Helper()
	const in, out = 0x8000, 0x9000
	b := prog.New("vgroup-dae-fault")
	gid := b.Int()
	lane := b.Int()
	none := b.Int()
	outAddr := b.Int()
	tmp := b.Int()
	b.Csrr(gid, isa.CsrGroupID)
	b.Csrr(lane, isa.CsrLaneID)
	b.Li(none, -1)
	b.Beq(gid, none, "idle")
	b.Slli(outAddr, gid, 2)
	b.Mv(tmp, lane)
	b.Slli(tmp, tmp, 2)
	b.Slli(outAddr, outAddr, 2)
	b.Add(outAddr, outAddr, tmp)
	b.Addi(outAddr, outAddr, out)
	b.ConfigFrames(1, 2)
	b.Vectorize()
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
	initMT, _ := b.Microthread(func() { b.FliF(fone, 1.0) })
	b.VIssueAt(initMT)
	addrReg := b.Int()
	offReg := b.Int()
	b.Slli(addrReg, gid, 4)
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
	b.Recover("idle")
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return p
}

func runV4DAE(t *testing.T, plan *fault.Plan, checkEvery, stallLimit int64) (*machine.Machine, error) {
	t.Helper()
	m := newV4DAE(t, buildV4DAE(t), plan, checkEvery, stallLimit)
	_, runErr := m.Run(testBudget)
	return m, runErr
}

// newV4DAE builds a machine running p on the V4 groups, with the input
// buildV4DAE's program reads written, ready to run.
func newV4DAE(t *testing.T, p *isa.Program, plan *fault.Plan, checkEvery, stallLimit int64) *machine.Machine {
	t.Helper()
	cfg := config.ManycoreDefault()
	groups, err := config.MakeGroups(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(machine.Params{
		Cfg: cfg, Prog: p, Groups: groups, Faults: plan,
		CheckEvery: checkEvery, StallLimit: stallLimit,
	})
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	const in = 0x8000
	for i := 0; i < len(groups)*4; i++ {
		m.Global.WriteWord(uint32(in+4*i), math.Float32bits(float32(i)*0.5))
	}
	return m
}

// TestKillLaneDegrades kills one lane of group 0 mid-kernel: the machine
// must finish without error, survivors of the broken group must recover to
// the idle path, and every other group's output must still be correct.
func TestKillLaneDegrades(t *testing.T) {
	cfg := config.ManycoreDefault()
	groups, err := config.MakeGroups(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	victim := groups[0].Lanes[len(groups[0].Lanes)-1]
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.KillTile, Cycle: 100, Tile: victim},
	}}
	m, runErr := runV4DAE(t, plan, 0, 0)
	if runErr != nil {
		t.Fatalf("degraded run must complete, got: %v", runErr)
	}
	rep := m.FaultReport()
	if rep == nil || !rep.Degraded() {
		t.Fatalf("report not degraded: %v", rep)
	}
	if len(rep.DeadTiles) != 1 || rep.DeadTiles[0] != victim {
		t.Errorf("dead tiles %v, want [%d]", rep.DeadTiles, victim)
	}
	if len(rep.BrokenGroups) != 1 || rep.BrokenGroups[0] != 0 {
		t.Errorf("broken groups %v, want [0]", rep.BrokenGroups)
	}
	if !m.Core(victim).Dead() {
		t.Error("victim core not marked dead")
	}
	// Survivors of group 0 must have halted (via the recovery point), and
	// every healthy group must have produced correct output.
	for _, lane := range groups[0].Lanes {
		if lane != victim && !m.Core(lane).Halted() {
			t.Errorf("survivor lane %d did not halt", lane)
		}
	}
	const out = 0x9000
	for g := 1; g < len(groups); g++ {
		for l := 0; l < 4; l++ {
			i := g*4 + l
			got := math.Float32frombits(m.Global.ReadWord(uint32(out + 4*i)))
			want := float32(i)*0.5 + 1
			if got != want {
				t.Errorf("group %d elem %d: got %g, want %g", g, i, got, want)
			}
		}
	}
}

// TestFaultDeterminism runs the same program under the same fault schedule
// twice: statistics must be identical field for field (satellite: the
// injector and retry protocol must be fully deterministic).
func TestFaultDeterminism(t *testing.T) {
	mkPlan := func() *fault.Plan {
		p, err := fault.Parse("seed=42;kill@400:t9;drop@0-3000:1>2:p0.5:req;stick@50:t20:d200")
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return p
	}
	m1, err1 := runV4DAE(t, mkPlan(), 0, 0)
	m2, err2 := runV4DAE(t, mkPlan(), 0, 0)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("divergent outcomes: %v vs %v", err1, err2)
	}
	if err1 != nil && err1.Error() != err2.Error() {
		t.Fatalf("divergent errors:\n%v\n%v", err1, err2)
	}
	if m1.Now() != m2.Now() {
		t.Fatalf("divergent cycle counts: %d vs %d", m1.Now(), m2.Now())
	}
	// Host timing is the one intentionally nondeterministic statistic.
	m1.Stats.WallNs, m2.Stats.WallNs = 0, 0
	if !reflect.DeepEqual(m1.Stats, m2.Stats) {
		t.Fatal("statistics differ between identical fault runs")
	}
	r1, r2 := m1.FaultReport(), m2.FaultReport()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("fault reports differ:\n%v\n%v", r1, r2)
	}
}

// TestFrameOverflowStructured reproduces the paper's Fig. 9 hazard — vload
// data arriving for a frame further ahead than the hardware counters can
// track — and asserts it surfaces as a structured RunError naming the
// offending tile, not a panic.
func TestFrameOverflowStructured(t *testing.T) {
	cfg := config.ManycoreDefault()
	b := prog.New("frame-overflow")
	tid := b.Int()
	five := b.Int()
	b.Csrr(tid, isa.CsrCoreID)
	b.Li(five, 5)
	b.Bne(tid, five, "done")
	// Tile 5 configures 2 one-word frames, then self-loads the same frame
	// slot twice without ever consuming: the second arrival overflows the
	// frame counter.
	b.ConfigFrames(1, 2)
	addr := b.Int()
	off := b.Int()
	b.Li(addr, 0x4000)
	b.Li(off, 0)
	b.VLoad(isa.VloadSelf, addr, off, 0, 1, false)
	b.VLoad(isa.VloadSelf, addr, off, 0, 1, false)
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
	var fe *lifecycle.RunError
	if !errors.As(runErr, &fe) {
		t.Fatalf("error is not a *RunError: %v", runErr)
	}
	if fe.Tile != 5 {
		t.Errorf("RunError.Tile = %d, want 5", fe.Tile)
	}
	if !strings.Contains(runErr.Error(), "overflow") {
		t.Errorf("error does not mention overflow: %v", runErr)
	}
}

// TestWatchdogParams drops the watchdog thresholds via Params and checks a
// stalled program is reported quickly as a structured deadlock error.
func TestWatchdogParams(t *testing.T) {
	cfg := config.ManycoreDefault()
	b := prog.New("stall-forever")
	tid := b.Int()
	zero := b.Int()
	b.Csrr(tid, isa.CsrCoreID)
	b.Li(zero, 0)
	b.Bne(tid, zero, "done")
	// Tile 0 waits on a frame that never fills.
	b.ConfigFrames(1, 2)
	fb := b.Int()
	b.FrameStart(fb)
	b.Label("done")
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	m, err := machine.New(machine.Params{Cfg: cfg, Prog: p, CheckEvery: 64, StallLimit: 4})
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	_, runErr := m.Run(testBudget)
	if runErr == nil {
		t.Fatal("expected a deadlock error")
	}
	var fe *lifecycle.RunError
	if !errors.As(runErr, &fe) {
		t.Fatalf("error is not a *RunError: %v", runErr)
	}
	if !strings.Contains(runErr.Error(), "deadlock") {
		t.Errorf("error does not mention deadlock: %v", runErr)
	}
	// Every tile's last issue lands before the first checkpoint, at 64,
	// which records the issued total; the four issue-free checkpoints after
	// it trip the watchdog at 64 * (1+4) = 320. The defaults would wait
	// 1024 * 64 = 65536 cycles.
	const wantTrip = 320
	if m.Now() != wantTrip {
		t.Errorf("watchdog fired at cycle %d, want %d (default params would wait %d)",
			m.Now(), wantTrip, machine.DefaultCheckEvery*machine.DefaultStallLimit)
	}
}

// TestMIMDKill kills an ungrouped tile mid-run: the machine must complete
// (the global barrier releases without the dead tile) and the report must
// name it.
func TestMIMDKill(t *testing.T) {
	cfg := config.ManycoreDefault()
	const base = 0x1000
	b := prog.New("mimd-kill")
	tid := b.Int()
	addr := b.Int()
	val := b.Int()
	i := b.Int()
	bound := b.Int()
	b.Csrr(tid, isa.CsrCoreID)
	b.Slli(addr, tid, 2)
	b.Addi(addr, addr, base)
	b.Slli(val, tid, 1)
	b.Addi(val, val, 7)
	// Spin a while so the kill at cycle 200 lands mid-run, then store.
	b.Li(i, 0)
	b.Li(bound, 100)
	b.Label("spin")
	b.Addi(i, i, 1)
	b.Blt(i, bound, "spin")
	b.Sw(val, addr, 0)
	b.Barrier()
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	plan := &fault.Plan{Events: []fault.Event{{Kind: fault.KillTile, Cycle: 200, Tile: 3}}}
	m, err := machine.New(machine.Params{Cfg: cfg, Prog: p, Faults: plan})
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	if _, err := m.Run(testBudget); err != nil {
		t.Fatalf("run: %v", err)
	}
	rep := m.FaultReport()
	if rep == nil || len(rep.DeadTiles) != 1 || rep.DeadTiles[0] != 3 {
		t.Fatalf("report %v, want dead tile 3", rep)
	}
	for tidv := 0; tidv < cfg.Cores; tidv++ {
		if tidv == 3 {
			continue
		}
		got := m.Global.ReadWord(uint32(base + 4*tidv))
		want := uint32(2*tidv + 7)
		if got != want {
			t.Errorf("core %d: mem = %d, want %d", tidv, got, want)
		}
	}
}
