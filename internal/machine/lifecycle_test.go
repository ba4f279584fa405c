package machine_test

// Lifecycle coverage at the machine layer: injected panics are contained
// into FaultError with the original goroutine stack, cancellation aborts a
// run at the next watchdog checkpoint, and the wall-clock watchdog kills an
// over-budget run with a diagnostic state dump.

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/lifecycle"
	"rockcress/internal/machine"
)

// runLifecycle builds the V4 DAE program and runs it with the given params
// filled in around the common setup.
func runLifecycle(t *testing.T, mutate func(*machine.Params)) (*machine.Machine, error) {
	t.Helper()
	cfg := config.ManycoreDefault()
	groups, err := config.MakeGroups(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	params := machine.Params{Cfg: cfg, Prog: buildV4DAE(t), Groups: groups, CheckEvery: 16}
	mutate(&params)
	m, err := machine.New(params)
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	const in = 0x8000
	for i := 0; i < len(groups)*4; i++ {
		m.Global.WriteWord(uint32(in+4*i), math.Float32bits(float32(i)*0.5))
	}
	_, runErr := m.Run(testBudget)
	return m, runErr
}

// TestInjectedPanicContained arms a PanicTile fault and checks the engine
// converts the resulting core panic — fired inside the tick path, where a
// real defect would land — into a FaultError that keeps the panic message
// and the stack of the core that died: the run loop recovers on the
// goroutine that panicked.
func TestInjectedPanicContained(t *testing.T) {
	t.Run("serial", func(t *testing.T) {
		plan := &fault.Plan{Events: []fault.Event{
			{Kind: fault.PanicTile, Cycle: 50, Tile: 3},
		}}
		_, err := runLifecycle(t, func(p *machine.Params) { p.Faults = plan })
		if err == nil {
			t.Fatal("injected panic completed without error")
		}
		var fe *machine.FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("want *machine.FaultError, got %T: %v", err, err)
		}
		if !strings.Contains(fe.Err.Error(), "internal panic") ||
			!strings.Contains(fe.Err.Error(), "injected panic on tile 3") {
			t.Errorf("panic message lost: %v", fe.Err)
		}
		if !strings.Contains(fe.Stack, "(*Core).Tick") {
			t.Errorf("original panic stack lost (no Core.Tick frame):\n%s", fe.Stack)
		}
	})
}

// TestRunCanceled cancels the context before the run: the machine must abort
// at a watchdog checkpoint with an error that Interrupted recognizes, rather
// than simulate to completion.
func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := runLifecycle(t, func(p *machine.Params) { p.Ctx = ctx })
	if err == nil {
		t.Fatal("canceled run completed without error")
	}
	if !lifecycle.Interrupted(err) {
		t.Fatalf("cancel not recognizable via Interrupted: %v", err)
	}
}

// TestWallBudgetExceeded puts the wall deadline in the past: the run must
// die with ErrWallBudget and carry the diagnostic state snapshot.
func TestWallBudgetExceeded(t *testing.T) {
	_, err := runLifecycle(t, func(p *machine.Params) {
		p.WallDeadline = time.Now().Add(-time.Second)
	})
	if err == nil {
		t.Fatal("over-budget run completed without error")
	}
	if !lifecycle.WallBudget(err) {
		t.Fatalf("wall-budget abort not recognizable via WallBudget: %v", err)
	}
	var fe *machine.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want *machine.FaultError, got %T", err)
	}
	if fe.State == "" {
		t.Error("wall-budget abort carries no diagnostic state snapshot")
	}
}

// TestLifecycleChecksPreserveDeterminism runs the same program with and
// without a lifecycle context/deadline attached and requires bit-identical
// cycle counts: the checks may only abort a run, never perturb one.
func TestLifecycleChecksPreserveDeterminism(t *testing.T) {
	bare, err := runLifecycle(t, func(p *machine.Params) {})
	if err != nil {
		t.Fatalf("bare run: %v", err)
	}
	guarded, err := runLifecycle(t, func(p *machine.Params) {
		p.Ctx = context.Background()
		p.WallDeadline = time.Now().Add(time.Hour)
	})
	if err != nil {
		t.Fatalf("guarded run: %v", err)
	}
	if bare.Now() != guarded.Now() {
		t.Fatalf("lifecycle checks changed the cycle count: bare %d, guarded %d",
			bare.Now(), guarded.Now())
	}
}
