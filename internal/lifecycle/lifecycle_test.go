package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestWrapRunPreservesInnermost layers WrapRun the way the real call chain
// does (kernels wraps, then the harness wraps again) and requires the
// innermost attempt's kernel, config, attempt, cycle, and stack to survive.
func TestWrapRunPreservesInnermost(t *testing.T) {
	inner := WrapRun("gemm", "V4", 3, &RunError{Cycle: 12345, Tile: -1, Stack: "goroutine 7 [running]:\nworker()", Err: errors.New("boom")})
	outer := WrapRun("harness", "sweep", 1, fmt.Errorf("cell failed: %w", inner))

	var re *RunError
	if !errors.As(outer, &re) {
		t.Fatalf("want *RunError, got %T", outer)
	}
	if re.Kernel != "gemm" || re.Config != "V4" || re.Attempt != 3 {
		t.Fatalf("inner cell identity lost: %q/%q attempt %d", re.Kernel, re.Config, re.Attempt)
	}
	if re.Cycle != 12345 {
		t.Errorf("cycle lost: %d", re.Cycle)
	}
	if !strings.Contains(re.Stack, "worker()") {
		t.Errorf("stack lost: %q", re.Stack)
	}
	if !strings.Contains(re.Error(), "boom") {
		t.Errorf("cause lost: %q", re.Error())
	}
}

// TestWrapRunFillsMissing checks the other half of idempotency: rewrapping
// fills fields the inner error never knew, without overwriting known ones.
func TestWrapRunFillsMissing(t *testing.T) {
	partial := &RunError{Attempt: 2, Cycle: -1, Err: errors.New("x")}
	out := WrapRun("mvt", "NV", 9, fmt.Errorf("w: %w", partial))
	var re *RunError
	if !errors.As(out, &re) {
		t.Fatalf("want *RunError, got %T", out)
	}
	if re.Kernel != "mvt" || re.Config != "NV" {
		t.Errorf("missing fields not filled: %q/%q", re.Kernel, re.Config)
	}
	if re.Attempt != 2 {
		t.Errorf("known attempt overwritten: %d", re.Attempt)
	}
}

func TestWrapRunNil(t *testing.T) {
	if err := WrapRun("k", "c", 1, nil); err != nil {
		t.Fatalf("nil in, %v out", err)
	}
}

// TestContain converts a panic into a RunError with the panicking frame in
// the stack, passes ordinary errors through untouched, and stays silent on
// success.
func TestContain(t *testing.T) {
	err := Contain("bfs", "V16", 1, func() error { panicHelperForTest(); return nil })
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("want *RunError, got %T: %v", err, err)
	}
	if re.Kernel != "bfs" || re.Config != "V16" || re.Attempt != 1 {
		t.Errorf("cell identity wrong: %+v", re)
	}
	if !strings.Contains(re.Err.Error(), "panic: kaboom") {
		t.Errorf("panic value lost: %v", re.Err)
	}
	if !strings.Contains(re.Stack, "panicHelperForTest") {
		t.Errorf("panicking frame missing from stack:\n%s", re.Stack)
	}

	plain := errors.New("plain")
	if got := Contain("k", "c", 1, func() error { return plain }); got != plain {
		t.Errorf("plain error not passed through: %v", got)
	}
	if got := Contain("k", "c", 1, func() error { return nil }); got != nil {
		t.Errorf("success produced %v", got)
	}
}

//go:noinline
func panicHelperForTest() { panic("kaboom") }

// TestInterruptedAndWallBudget checks the two classifiers see through the
// RunError wrapping used on real failure paths.
func TestInterruptedAndWallBudget(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	canceled := WrapRun("k", "c", 1, &RunError{Cycle: 10, Tile: -1, Err: fmt.Errorf("run canceled: %w", ctx.Err())})
	if !Interrupted(canceled) {
		t.Errorf("wrapped cancel not recognized: %v", canceled)
	}
	if WallBudget(canceled) {
		t.Errorf("cancel misclassified as wall budget")
	}
	budget := WrapRun("k", "c", 2, &RunError{Cycle: 10, Tile: -1, Err: fmt.Errorf("machine: %w", ErrWallBudget)})
	if !WallBudget(budget) {
		t.Errorf("wrapped wall budget not recognized: %v", budget)
	}
	if Interrupted(budget) {
		t.Errorf("wall budget misclassified as interrupt")
	}
	if Interrupted(errors.New("other")) || WallBudget(nil) {
		t.Error("classifiers fire on unrelated errors")
	}
}
