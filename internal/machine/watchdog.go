package machine

import (
	"errors"
	"fmt"
	"runtime/debug"

	"rockcress/internal/lifecycle"
)

// ErrDeadlock marks the cycle watchdog's verdict: no core issued an
// instruction for StallLimit consecutive checkpoints. Callers classify with
// errors.Is (the flight recorder dumps a forensic bundle on it).
var ErrDeadlock = errors.New("machine: deadlock")

// faultErr wraps a component error into the run's failure record with the
// current cycle and state dump (idempotent: an already-structured error
// passes through).
func (m *Machine) faultErr(tile int, err error) error {
	var re *lifecycle.RunError
	if errors.As(err, &re) {
		return err
	}
	return &lifecycle.RunError{Cycle: m.now, Tile: tile, Err: err, State: m.debugState()}
}

// recoverRun, deferred around the run loop, turns a panic anywhere in it (a
// simulator bug) into a *lifecycle.RunError rather than taking down the
// caller. The recover runs on the goroutine that panicked, so the stack
// still names the component that died.
func (m *Machine) recoverRun(err *error) {
	r := recover()
	if r == nil {
		return
	}
	*err = &lifecycle.RunError{Cycle: m.now, Tile: -1, State: m.debugState(),
		Err: fmt.Errorf("machine: internal panic: %v", r), Stack: string(debug.Stack())}
}

// watchdog is the run loop's progress monitor.
type watchdog struct {
	lastIssued int64 // issued-instruction total at the last checkpoint
	stalled    int64 // checkpoints it has stood still since
}

// checkpoint runs every CheckEvery cycles while cores are running.
func (m *Machine) checkpoint(wd *watchdog) error {
	if err := m.checkLifecycle(); err != nil {
		return err
	}
	if err := m.checkComponents(); err != nil {
		return err
	}
	// The issued total is exact at any cycle: a parked core never issues,
	// so its deferred back-fill (CatchUp) never books an issued cycle.
	var issued int64
	for i := range m.Stats.Cores {
		issued += m.Stats.Cores[i].Issued()
	}
	if issued != wd.lastIssued {
		wd.stalled, wd.lastIssued = 0, issued
		return nil
	}
	wd.stalled++
	if wd.stalled < m.stallLimit {
		return nil
	}
	derr := fmt.Errorf("%w: no instruction issued for %d cycles", ErrDeadlock, wd.stalled*m.checkEvery)
	m.flight.Note(m.now, "watchdog", derr.Error())
	return m.faultErr(-1, derr)
}

// checkLifecycle ends the run once its context does: canceled, or past the
// wall-clock budget lifecycle.WithWallBudget gave it, which also takes a
// state dump and a flight note. Called only at watchdog checkpoints, so a
// run that completes is cycle-identical whether or not a context was
// attached, and the per-checkpoint cost (one context read) is amortized
// over CheckEvery cycles.
func (m *Machine) checkLifecycle() error {
	stop := lifecycle.Stopped(m.ctx)
	if stop == nil {
		return nil
	}
	re := &lifecycle.RunError{Cycle: m.now, Tile: -1, Err: fmt.Errorf("machine: %w", stop)}
	if lifecycle.WallBudget(stop) {
		m.flight.Note(m.now, "wall_budget", "wall-clock watchdog expired")
		re.State = m.debugState()
	}
	return re
}

func (m *Machine) checkComponents() error {
	if m.err != nil {
		return m.faultErr(-1, m.err)
	}
	for _, b := range m.llcs {
		if err := b.Err(); err != nil {
			return m.faultErr(-1, err)
		}
	}
	for t, s := range m.spads {
		if err := s.Err(); err != nil {
			// Scratchpads stamp the cycle a violation latched at, so the
			// error carries the occurrence cycle rather than the (up to
			// CheckEvery later) cycle the sweep noticed it.
			re := &lifecycle.RunError{Cycle: m.now, Tile: t, Err: err, State: m.debugState()}
			if c := s.ErrCycle(); c >= 0 {
				re.Cycle = c
			}
			return re
		}
	}
	if err := m.meshReq.Err(); err != nil {
		return m.faultErr(-1, err)
	}
	if err := m.meshResp.Err(); err != nil {
		return m.faultErr(-1, err)
	}
	if err := m.Global.Err(); err != nil {
		return m.faultErr(-1, err)
	}
	return nil
}

// debugState summarizes non-halted cores for deadlock diagnostics.
func (m *Machine) debugState() string {
	out := ""
	n := 0
	for _, c := range m.cores {
		if c.Halted() {
			continue
		}
		if n >= 12 {
			out += "  ...\n"
			break
		}
		out += "  " + c.DebugState() + "\n"
		n++
	}
	return out
}
