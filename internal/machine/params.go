package machine

import (
	"context"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/isa"
	"rockcress/internal/metrics"
	"rockcress/internal/sim"
	"rockcress/internal/trace"
)

// DefaultMemBytes sizes the global backing store.
const DefaultMemBytes = 32 * 1024 * 1024

// Watchdog defaults: check progress every CheckEvery cycles; abort after
// StallLimit consecutive checks with no instruction issued anywhere.
const (
	DefaultCheckEvery = 1024
	DefaultStallLimit = 64
)

// Params configures a machine instance.
type Params struct {
	Cfg      config.Manycore
	Prog     *isa.Program
	Groups   []*config.Group // nil for pure-MIMD configurations
	MemBytes int             // backing store size; DefaultMemBytes if 0

	// Faults is the fault-injection schedule; nil costs nothing. A faulted
	// machine publishes a checkpoint wherever the program arms one: csrw
	// ckpt asks for a global-memory snapshot at the next barrier release,
	// retrievable via Machine.Checkpoint after the run.
	Faults *fault.Plan

	// NoReplay disables the scratchpad integrity layer (per-frame parity +
	// poisoned-frame replay) that fault-injection runs otherwise get. Used
	// to measure the whole-run-restart baseline.
	NoReplay bool

	// Watchdog tuning; zero means the default. Only tests set them, to
	// shorten deadlock detection.
	CheckEvery int64
	StallLimit int64

	// Trace attaches an observability sink (windowed telemetry sampler and
	// structured event recorder). nil costs nothing; with a sink attached,
	// cycle counts are still bit-identical.
	Trace *trace.Sink

	// Prof attaches an engine self-profile (per-stage wall time plus the
	// fast-forward meter). nil costs nothing. Reusable across attempts for
	// cumulative numbers.
	Prof *sim.Prof

	// Obs attaches the observability plane. A machine that wins the
	// plane's slot feeds its flight recorder: telemetry windows, rare-event
	// notes, and a heatmap copied in at watchdog-checkpoint granularity —
	// nil costs nothing, and cycle counts are bit-identical with the plane
	// on or off. When several machines run concurrently (harness sweeps),
	// the first to bind feeds the recorder; the rest still report through
	// the plane's run status from the kernels layer.
	Obs *metrics.Plane

	// Causal attaches the causal profiler (internal/causal): per-tile
	// resource-class accounting, barrier-interval critical-path
	// extraction, and journey stamping through the memory system. Gated
	// like Trace/Obs — off, the hot paths pay one nil check each and cycle
	// counts plus goldens are bit-identical with it on or off.
	Causal bool

	// Ctx, when non-nil, makes the run cancellable: cancellation is checked
	// at watchdog-checkpoint granularity (never mid-cycle), so cycle counts
	// of runs that complete are bit-identical with or without a context. A
	// context from lifecycle.WithWallBudget is also the wall-clock watchdog:
	// a run still going when it expires aborts with a diagnostic state dump.
	// Distinct from the simulated-cycle watchdog (CheckEvery/StallLimit) —
	// this one catches host-time hangs (livelock, pathological slowdown),
	// not simulated deadlock.
	Ctx context.Context
}
