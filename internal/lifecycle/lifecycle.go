// Package lifecycle is the run-lifecycle layer: everything that makes a
// simulation cancellable, deadline-bounded, crash-contained, and resumable
// without touching simulated cycle counts.
//
//   - RunError is the one record of a failed run: which kernel and
//     configuration died, on which attempt, at which simulated cycle and
//     tile, with the machine's state dump and — for contained panics — the
//     original goroutine stack. The machine fills where the run died; the
//     layers above add the cell's identity with WrapRun. A panic anywhere in
//     a cell fails that cell, never the process.
//   - A run has one stop signal, its context. WithSignals cancels it on
//     SIGINT/SIGTERM: the first signal cancels the context (runs abort at
//     the next watchdog checkpoint and the harness flushes partial
//     artifacts); a second signal kills the process the OS way.
//     WithWallBudget gives it a deadline whose cause is ErrWallBudget, the
//     wall-clock watchdog's verdict, distinct from the simulated-cycle
//     watchdog: a run that burns host time without finishing is killed with
//     a diagnostic snapshot instead of hanging a sweep. Stopped tells the
//     two apart at each check.
//   - Journal (journal.go) is the crash-safe sweep journal behind rockbench
//     -journal/-resume.
//
// The package deliberately depends on nothing inside the simulator, so any
// layer (sim, machine, kernels, harness, cmds) can use it.
package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"
)

// ErrWallBudget is the cause of an expired WithWallBudget context, and is
// wrapped by the error of a run that exceeded it. Detect with errors.Is.
var ErrWallBudget = errors.New("wall-clock budget exceeded")

// RunError is the structured failure of one run. Every field is diagnostic
// context the bare error string used to lose: the cell identity (kernel,
// configuration), the restart attempt that died, the simulated cycle the
// failure surfaced at and the tile it surfaced on (-1 when unknown or not
// tile-specific), the cause, the machine's per-core state dump, and the
// original panic stack when the failure was a contained panic.
type RunError struct {
	Kernel  string
	Config  string
	Attempt int
	Cycle   int64 // simulated cycle the failure surfaced at; -1 unknown
	Tile    int   // tile the failure surfaced on; -1 unknown or none
	Err     error
	State   string // per-core state dump; "" when none was taken
	Stack   string
}

// Error names each of the record's known fields once:
// "kernel/config attempt N: cause (cycle C, tile T)", then the state dump
// and the panic stack on the lines below. A tile is named with its cycle:
// the machine, the one layer that knows a tile, always knows the cycle.
func (e *RunError) Error() string {
	s := e.Err.Error()
	if e.Kernel != "" || e.Config != "" {
		id := e.Kernel + "/" + e.Config
		if e.Attempt > 0 {
			id += fmt.Sprintf(" attempt %d", e.Attempt)
		}
		s = id + ": " + s
	}
	if e.Cycle >= 0 {
		s += fmt.Sprintf(" (cycle %d", e.Cycle)
		if e.Tile >= 0 {
			s += fmt.Sprintf(", tile %d", e.Tile)
		}
		s += ")"
	}
	if e.State != "" {
		s += "\n" + e.State
	}
	if e.Stack != "" {
		s += "\npanic stack:\n" + e.Stack
	}
	return s
}

func (e *RunError) Unwrap() error { return e.Err }

// WrapRun attaches cell context to a run failure. Idempotent: an error that
// already is a *RunError keeps its fields (missing ones are filled in), so
// layered wrapping never loses the innermost attempt's context. A nil err
// returns nil; a new record's Cycle is -1 (unknown) and its Stack empty.
func WrapRun(kernel, config string, attempt int, err error) error {
	if err == nil {
		return nil
	}
	var re *RunError
	if errors.As(err, &re) {
		if re.Kernel == "" {
			re.Kernel = kernel
		}
		if re.Config == "" {
			re.Config = config
		}
		if re.Attempt == 0 {
			re.Attempt = attempt
		}
		return err
	}
	return &RunError{Kernel: kernel, Config: config, Attempt: attempt,
		Cycle: -1, Tile: -1, Err: err}
}

// Contain runs fn, converting a panic into a *RunError carrying the original
// stack. This is the containment boundary a sweep's worker pool wraps each
// cell in: a simulator bug fails the cell, not the process.
func Contain(kernel, config string, attempt int, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &RunError{
				Kernel: kernel, Config: config, Attempt: attempt, Cycle: -1, Tile: -1,
				Stack: string(debug.Stack()),
				Err:   fmt.Errorf("panic: %v", r),
			}
		}
	}()
	return fn()
}

// Interrupted reports whether err traces back to cancellation: a delivered
// signal, an expired deadline, or an explicit CancelFunc. Callers use it to
// pick exit paths (flush-and-report-partial vs plain failure).
func Interrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// WallBudget reports whether err traces back to the wall-clock watchdog.
func WallBudget(err error) bool { return errors.Is(err, ErrWallBudget) }

// WithWallBudget returns a child of parent that expires d from now with
// ErrWallBudget as its cause: the wall-clock budget of everything run under
// it. A budget of 0 or less adds nothing and returns parent, nil included,
// with a cancel that does nothing.
func WithWallBudget(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return parent, func() {}
	}
	if parent == nil {
		parent = context.Background()
	}
	return context.WithTimeoutCause(parent, d, ErrWallBudget)
}

// Stopped is the check a run makes of its context: nil while ctx (nil
// included) runs, ErrWallBudget once its wall budget expired, and a
// cancellation wrapping ctx.Err() for any other end. The budget's error does
// not wrap context.DeadlineExceeded, so Interrupted stays false for it.
func Stopped(ctx context.Context) error {
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	if errors.Is(context.Cause(ctx), ErrWallBudget) {
		return ErrWallBudget
	}
	return fmt.Errorf("run canceled: %w", ctx.Err())
}

// WithSignals returns a child context canceled on the first SIGINT or
// SIGTERM. After the first signal the handler is removed, so a second signal
// takes the default OS action (immediate kill) — the escape hatch when a
// clean shutdown itself wedges. The returned stop releases the handler.
func WithSignals(parent context.Context) (context.Context, context.CancelFunc) {
	return signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
}

// ExitCodeInterrupted is the conventional exit status for a SIGINT-driven
// clean shutdown (128 + SIGINT).
const ExitCodeInterrupted = 130
