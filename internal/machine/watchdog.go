package machine

import (
	"errors"
	"fmt"
	"time"

	"rockcress/internal/lifecycle"
)

// FaultError is a structured simulation failure: the cycle it surfaced, the
// offending tile (-1 when not tile-specific), the underlying cause, and a
// per-core state dump for diagnostics. All Machine.Run failure paths return
// one (wrapped component errors, watchdog aborts, recovered panics).
type FaultError struct {
	Cycle int64
	Tile  int
	Err   error
	State string
	// Stack is the goroutine stack of a recovered panic, taken where the
	// component died (empty otherwise).
	Stack string
}

func (e *FaultError) Error() string {
	at := fmt.Sprintf("cycle %d", e.Cycle)
	if e.Tile >= 0 {
		at += fmt.Sprintf(", tile %d", e.Tile)
	}
	s := fmt.Sprintf("%v (%s)", e.Err, at)
	if e.State != "" {
		s += "\n" + e.State
	}
	return s
}

func (e *FaultError) Unwrap() error { return e.Err }

// ErrDeadlock marks the cycle watchdog's verdict: no core issued an
// instruction for StallLimit consecutive checkpoints. Callers classify with
// errors.Is (the flight recorder dumps a forensic bundle on it).
var ErrDeadlock = errors.New("machine: deadlock")

// faultErr wraps a component error into a FaultError with the current cycle
// and state dump (idempotent: an already-structured error passes through).
func (m *Machine) faultErr(tile int, err error) error {
	var fe *FaultError
	if errors.As(err, &fe) {
		return err
	}
	return &FaultError{Cycle: m.now, Tile: tile, Err: err, State: m.debugState()}
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
	if m.issued != wd.lastIssued {
		wd.stalled, wd.lastIssued = 0, m.issued
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

// checkLifecycle enforces cancellation and the wall-clock budget. Called
// only at watchdog checkpoints, so a run that completes is cycle-identical
// whether or not a context/deadline was attached, and the per-checkpoint
// cost (one atomic load, one clock read) is amortized over CheckEvery
// cycles.
func (m *Machine) checkLifecycle() error {
	if m.ctx != nil {
		if cerr := m.ctx.Err(); cerr != nil {
			return &FaultError{Cycle: m.now, Tile: -1,
				Err: fmt.Errorf("machine: run canceled: %w", cerr)}
		}
	}
	if !m.wallDeadline.IsZero() && time.Now().After(m.wallDeadline) {
		m.flight.Note(m.now, "wall_budget", "wall-clock watchdog expired")
		return &FaultError{Cycle: m.now, Tile: -1,
			Err:   fmt.Errorf("machine: %w", lifecycle.ErrWallBudget),
			State: m.debugState()}
	}
	return nil
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
			fe := &FaultError{Cycle: m.now, Tile: t, Err: err, State: m.debugState()}
			if c := s.ErrCycle(); c >= 0 {
				fe.Cycle = c
			}
			return fe
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
