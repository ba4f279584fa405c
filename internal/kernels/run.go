package kernels

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rockcress/internal/causal"
	"rockcress/internal/config"
	"rockcress/internal/energy"
	"rockcress/internal/gpu"
	"rockcress/internal/isa"
	"rockcress/internal/lifecycle"
	"rockcress/internal/machine"
	"rockcress/internal/metrics"
	"rockcress/internal/sim"
	"rockcress/internal/stats"
	"rockcress/internal/trace"
)

// DefaultMaxCycles bounds a single benchmark simulation.
const DefaultMaxCycles = 200_000_000

// Result is one benchmark x configuration run.
type Result struct {
	Bench  string
	Config string
	Params Params
	HW     config.Manycore
	Stats  *stats.Machine
	Energy energy.Breakdown
	Groups []*config.Group
	GPU    *gpu.Stats     // set for the GPU configuration
	Causal *causal.Report `json:",omitempty"` // set when ExecOpts.Causal
}

// Cycles returns the run time in cycles (GPU or manycore).
func (r *Result) Cycles() int64 {
	if r.GPU != nil {
		return r.GPU.Cycles
	}
	return r.Stats.Cycles
}

// ExecOpts tunes one execution beyond the benchmark/config selection.
type ExecOpts struct {
	// MaxCycles bounds the simulation; DefaultMaxCycles when 0.
	MaxCycles int64
	// Workers sizes the machine's two-phase engine tick pool. Results are
	// bit-identical for every value; 0 or 1 runs the serial engine.
	Workers int
	// TraceBarriers logs global barrier releases (per-instance debug aid).
	TraceBarriers bool

	// NoReplay disables the frame-integrity layer (per-frame parity +
	// poisoned-frame replay) on fault runs; NoCheckpoint disables
	// checkpointed restart. Both exist to measure the whole-run-restart
	// baseline the recovery ladder is compared against. Fault-free runs
	// (Execute/ExecuteOpts) never enable either, so these have no effect
	// there.
	NoReplay     bool
	NoCheckpoint bool

	// Trace attaches an observability sink to the machine (nil costs
	// nothing). One sink serves one execution; multi-attempt fault runs
	// reuse it across attempts and the telemetry windows restart per
	// attempt. The caller owns Close.
	Trace *trace.Sink
	// WatchAddr arms the per-instance global-address debug watch.
	WatchAddr uint32
	// Prof attaches an engine self-profile (cumulative across attempts).
	Prof *sim.Prof
	// Obs attaches the live observability plane: sweep progress and ladder
	// state for /debug/run, the machine's metric series, and automatic
	// flight-recorder dumps when a run dies badly. nil costs nothing.
	Obs *metrics.Plane

	// Causal enables the causal profiler: critical-path extraction, per-
	// resource slack accounting, and what-if projections land in
	// Result.Causal. Cycle counts are bit-identical with it on or off.
	// Ignored by the GPU model.
	Causal bool

	// Ctx, when non-nil, makes the execution cancellable at watchdog-
	// checkpoint granularity. A run that completes is cycle-identical with
	// or without a context attached.
	Ctx context.Context
	// WallBudget, when positive, bounds the execution's host time: a run
	// still going past it fails with lifecycle.ErrWallBudget and a
	// diagnostic state dump. Multi-attempt fault executions share one
	// budget across attempts.
	WallBudget time.Duration
}

// wallDeadline converts the budget to an absolute machine deadline.
func (o *ExecOpts) wallDeadline() time.Time {
	if o.WallBudget <= 0 {
		return time.Time{}
	}
	return time.Now().Add(o.WallBudget)
}

// machineParams maps the options onto one machine build. The fault ladder
// adds its per-attempt plan and recovery switches on top.
func (o *ExecOpts) machineParams(hw config.Manycore, prog *isa.Program, groups []*config.Group, memBytes int) machine.Params {
	return machine.Params{Cfg: hw, Prog: prog, Groups: groups, MemBytes: memBytes,
		Workers: o.Workers, TraceBarriers: o.TraceBarriers,
		Trace: o.Trace, WatchAddr: o.WatchAddr, Prof: o.Prof, Obs: o.Obs,
		Causal: o.Causal, Ctx: o.Ctx, WallDeadline: o.wallDeadline()}
}

// Execute runs benchmark b with parameters p under the given software row
// and hardware base configuration, checks the results against the serial
// reference, and returns the statistics.
func Execute(b Benchmark, p Params, sw config.Software, hw config.Manycore, maxCycles int64) (*Result, error) {
	return ExecuteOpts(b, p, sw, hw, ExecOpts{MaxCycles: maxCycles})
}

// ExecuteOpts is Execute with engine options.
func ExecuteOpts(b Benchmark, p Params, sw config.Software, hw config.Manycore, opts ExecOpts) (*Result, error) {
	tok := opts.Obs.Run().Begin(b.Info().Name, sw.Name)
	res, err := executeOpts(b, p, sw, hw, opts)
	opts.Obs.Run().End(tok, err)
	return res, err
}

func executeOpts(b Benchmark, p Params, sw config.Software, hw config.Manycore, opts ExecOpts) (*Result, error) {
	name := b.Info().Name
	maxCycles := opts.MaxCycles
	if maxCycles == 0 {
		maxCycles = DefaultMaxCycles
	}
	if sw.Style == config.StyleGPU {
		return executeGPU(b, p, maxCycles, opts)
	}
	hw = sw.Apply(hw)
	groups, err := GroupsFor(sw, hw)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", name, sw.Name, err)
	}
	img, err := b.Prepare(p)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", name, err)
	}
	if err := img.Err(); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", name, err)
	}
	ctx := NewCtx(p, img, sw, hw, groups)
	if err := b.Build(ctx); err != nil {
		return nil, fmt.Errorf("%s/%s: build: %w", name, sw.Name, err)
	}
	prog, err := ctx.B.Build()
	if err != nil {
		return nil, fmt.Errorf("%s/%s: assemble: %w", name, sw.Name, err)
	}
	memBytes := img.SizeBytes()
	if memBytes < machine.DefaultMemBytes {
		memBytes = machine.DefaultMemBytes
	}
	m, err := machine.New(opts.machineParams(hw, prog, groups, memBytes))
	if err != nil {
		return nil, fmt.Errorf("%s/%s: machine: %w", name, sw.Name, err)
	}
	// Failed cells park the store too, once the flight dump and the result
	// check below have read it: the next cell of a sweep reuses it.
	defer m.Global.Recycle()
	img.Apply(m.Global)
	st, err := m.Run(maxCycles)
	opts.Obs.Run().AddSim(m.Now(), st.WallNs)
	if err != nil {
		maybeFlightDump(opts.Obs, err)
		return nil, wrapRun(name, sw.Name, 1, err)
	}
	if err := img.Check(m.Global); err != nil {
		return nil, fmt.Errorf("%s/%s: wrong result: %w", name, sw.Name, err)
	}
	res := &Result{
		Bench: name, Config: sw.Name, Params: p, HW: hw,
		Stats: st, Energy: energy.New(hw).Evaluate(st), Groups: groups,
	}
	if prof := m.CausalProfile(); prof != nil {
		res.Causal = causal.BuildReport(prof)
	}
	return res, nil
}

func executeGPU(b Benchmark, p Params, maxCycles int64, opts ExecOpts) (*Result, error) {
	name := b.Info().Name
	img, err := b.Prepare(p)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", name, err)
	}
	launches, err := b.GPU(p, img)
	if err != nil {
		return nil, fmt.Errorf("%s/GPU: %w", name, err)
	}
	if err := img.Err(); err != nil {
		return nil, fmt.Errorf("%s/GPU: %w", name, err)
	}
	// Kernels launch back to back on one device: caches stay warm, cycles
	// accumulate. The GPU model has no watchdog checkpoints, so cancellation
	// and the wall budget are checked between launches.
	deadline := opts.wallDeadline()
	sim := gpu.NewSim(config.GPUDefault())
	var total gpu.Stats
	for _, k := range launches {
		if opts.Ctx != nil {
			if cerr := opts.Ctx.Err(); cerr != nil {
				return nil, wrapRun(name, "GPU", 1, fmt.Errorf("run canceled: %w", cerr))
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, wrapRun(name, "GPU", 1, lifecycle.ErrWallBudget)
		}
		st, err := sim.Run(k, maxCycles)
		if err != nil {
			return nil, fmt.Errorf("%s/GPU: %w", name, err)
		}
		total.Add(st)
	}
	return &Result{Bench: name, Config: "GPU", Params: p, GPU: &total}, nil
}

// maybeFlightDump writes a flight-recorder bundle for run failures worth a
// forensic record: watchdog-detected deadlock, an expired wall budget, or a
// contained simulator crash. Expected ladder failures (a fault killed the
// attempt and the restart will recover) and user cancellation dump nothing —
// the recorder is for runs that die badly, not runs that die on schedule.
// Dump errors are swallowed: forensics must never mask the run error.
func maybeFlightDump(p *metrics.Plane, err error) {
	if p == nil || err == nil || p.FlightDir() == "" {
		return
	}
	if lifecycle.Interrupted(err) {
		return
	}
	var reason string
	var fe *machine.FaultError
	hasFE := errors.As(err, &fe)
	switch {
	case lifecycle.WallBudget(err):
		reason = "wall_budget"
	case errors.Is(err, machine.ErrDeadlock):
		reason = "watchdog"
	case hasFE && fe.Stack != "":
		reason = "crash"
	default:
		return
	}
	state := ""
	if hasFE {
		state = fe.State
	}
	_, _ = p.DumpFlight(reason, err, state)
}

// wrapRun attaches cell identity (kernel, configuration, attempt) to a run
// failure, pulling the surfacing cycle and any recovered panic stack out of
// the machine's FaultError so nothing diagnostic is lost in the wrapping.
func wrapRun(bench, cfg string, attempt int, err error) error {
	if err == nil {
		return nil
	}
	cycle := int64(-1)
	stack := ""
	var fe *machine.FaultError
	if errors.As(err, &fe) {
		cycle = fe.Cycle
		stack = fe.Stack
	}
	return lifecycle.WrapRun(bench, cfg, attempt, cycle, stack, err)
}

// GPUSoftware is the Table 3 GPU row.
func GPUSoftware() config.Software {
	return config.Software{Name: "GPU", Style: config.StyleGPU, VLen: 1}
}
