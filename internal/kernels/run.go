package kernels

import (
	"context"
	"errors"
	"fmt"
	"time"

	"rockcress/internal/causal"
	"rockcress/internal/config"
	"rockcress/internal/energy"
	"rockcress/internal/fault"
	"rockcress/internal/gpu"
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
	// Workers is ignored: the engine ticks serially, and sweep cells
	// (harness.Options.Jobs) are the one parallelism. It stays declared
	// only because the benchmark driver in perf/ still sets it. No program
	// code under internal/ or cmd/ reads or sets it; the machine's golden
	// tests set it to pin that it stays inert.
	Workers int

	// Trace attaches an observability sink to the machine (nil costs
	// nothing). One sink serves one execution; multi-attempt fault runs
	// reuse it across attempts and the telemetry windows restart per
	// attempt. The caller owns Close.
	Trace *trace.Sink
	// Prof attaches an engine self-profile (cumulative across attempts).
	Prof *sim.Prof
	// Obs attaches the observability plane: sweep progress and ladder state
	// for a flight bundle's sweep section, the bound machine's windows,
	// notes and heatmap, and automatic flight-recorder dumps when a run dies
	// badly. nil costs nothing.
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
	// diagnostic state dump. An execution folds it into Ctx once
	// (lifecycle.WithWallBudget), so multi-attempt fault executions share
	// one budget across attempts.
	WallBudget time.Duration
}

// stopBefore is the between-runs check of o.Ctx: before attempt starts it
// fails the run once the context is canceled or its wall budget is spent.
func (o *ExecOpts) stopBefore(bench, cfg string, attempt int) error {
	return lifecycle.WrapRun(bench, cfg, attempt, lifecycle.Stopped(o.Ctx))
}

// ExecuteOpts runs benchmark b with parameters p under the given software
// row and hardware base configuration, checks the results against the
// serial reference, and returns the statistics. On the manycore it is the
// recovery ladder's first rung with no fault plan.
func ExecuteOpts(b Benchmark, p Params, sw config.Software, hw config.Manycore, opts ExecOpts) (*Result, error) {
	var fr FaultResult
	if err := execute(b, p, sw, hw, nil, opts, &fr); err != nil {
		return nil, err
	}
	return fr.Result, nil
}

// execute is the one run path: one sweep cell on opts.Obs, the GPU model for
// the GPU row and the recovery ladder for every manycore row, into fr.
func execute(b Benchmark, p Params, sw config.Software, hw config.Manycore,
	plan *fault.Plan, opts ExecOpts, fr *FaultResult) error {
	// The whole recovery ladder is one sweep cell: one Begin/End pair, with
	// the rung number surfaced live through SetAttempt.
	tok := opts.Obs.Run().Begin(b.Info().Name, cellConfig(opts, sw, hw))
	if opts.MaxCycles == 0 {
		opts.MaxCycles = DefaultMaxCycles
	}
	var err error
	if sw.Style == config.StyleGPU {
		if fr.Result, err = executeGPU(b, p, opts); err == nil {
			fr.Attempts, fr.TotalCycles = 1, fr.Result.Cycles()
		}
	} else {
		err = executeFaultLadder(b, p, sw, hw, plan, opts, tok, false, fr)
	}
	opts.Obs.Run().End(tok, err)
	return err
}

// cellConfig is the configuration a cell reports to the plane's run
// status: the Table 3 row, and the machine's spelling when it is not the
// default, so two cells of a figure that varies the machine stay apart.
// Without a plane nothing is spelled.
func cellConfig(opts ExecOpts, sw config.Software, hw config.Manycore) string {
	if opts.Obs == nil {
		return sw.Name
	}
	if k := config.MachineKey(hw); k != "" {
		return sw.Name + " [" + k + "]"
	}
	return sw.Name
}

// trial is one machine run of a benchmark: one rung of the recovery ladder.
type trial struct {
	n    int         // rung number
	plan *fault.Plan // nil on a fault-free run: no recovery instrumentation
	// restart is the whole-run-restart baseline the ladder is measured
	// against: the build has no checkpoint sites and the machine no
	// frame-integrity layer.
	restart   bool
	avoid     []int               // dead tiles the build works around
	snap      *machine.Checkpoint // latest snapshot, and the site count of
	snapSites int                 // the build that published it

	// Set by build and run.
	m        *machine.Machine
	img      *Image
	st       *stats.Machine
	runErr   error
	sites    int  // checkpoint sites in this build
	restored bool // resumed from snap, not the initial image
}

// runMachine runs an attempt's machine. Tests wrap it to count what a run
// allocates.
var runMachine = (*machine.Machine).Run

// run is the one attempt path: build the machine, run it, and tell the plane.
// Errors before the run are returned; the run's own is a.runErr.
func (a *trial) run(b Benchmark, p Params, sw, buildSW config.Software, hw config.Manycore,
	groups []*config.Group, opts ExecOpts) error {
	if err := a.build(b, p, sw, buildSW, hw, groups, opts); err != nil {
		return err
	}
	a.st, a.runErr = runMachine(a.m, opts.MaxCycles)
	opts.Obs.Run().AddSim(a.m.Now(), a.st.WallNs)
	// Dump per attempt, not only on the final error: a watchdog trip the
	// ladder then recovers from would otherwise leave no forensic record.
	maybeFlightDump(opts.Obs, a.runErr)
	return nil
}

// build is everything before cycle 0: prepare the image, build and assemble
// the program for the layout, build the machine, load the image — or restore
// the snapshot when it fits this build.
func (a *trial) build(b Benchmark, p Params, sw, buildSW config.Software, hw config.Manycore,
	groups []*config.Group, opts ExecOpts) error {
	name := b.Info().Name
	var err error
	if a.img, err = b.Prepare(p); err == nil {
		err = a.img.Err()
	}
	if err != nil {
		return fmt.Errorf("%s: prepare: %w", name, err)
	}
	ctx := NewCtx(p, a.img, buildSW, hw, groups)
	// A faulted build instruments every phase as a recovery point; the
	// machine publishes a snapshot wherever the program arms one.
	ctx.Avoid, ctx.Ckpt = a.avoid, a.plan != nil && !a.restart
	if err := b.Build(ctx); err != nil {
		return fmt.Errorf("%s/%s: build: %w", name, sw.Name, err)
	}
	prog, err := ctx.B.Build()
	if err != nil {
		return fmt.Errorf("%s/%s: assemble: %w", name, sw.Name, err)
	}
	mp := machine.Params{Cfg: hw, Prog: prog, Groups: groups,
		MemBytes: max(a.img.SizeBytes(), machine.DefaultMemBytes),
		Trace:    opts.Trace, Prof: opts.Prof, Obs: opts.Obs,
		Causal: opts.Causal, Ctx: opts.Ctx,
		Faults: a.plan, NoReplay: a.restart}
	if a.m, err = machine.New(mp); err != nil {
		return fmt.Errorf("%s/%s: machine: %w", name, sw.Name, err)
	}
	if a.m.ObsBound() {
		// This machine holds the plane's slot: the flight ring's windows and
		// notes from here on are this attempt's, whichever cell of a
		// concurrent sweep began last.
		opts.Obs.Flight().SetRun(name+"/"+sw.Name, max(a.n, 1))
	}
	// A snapshot is only restorable into a build with the same
	// recovery-point count (the MIMD fallback may change the phase
	// structure) and the same store size.
	a.sites = ctx.CheckpointSites()
	a.restored = a.snap != nil && a.snapSites == a.sites && a.snap.Image.Size() == mp.MemBytes
	if a.restored {
		a.m.RestoreCheckpoint(a.snap, a.n)
	} else {
		a.img.Apply(a.m.Global)
	}
	return nil
}

// result packages a correct attempt. The causal report is this attempt's
// profile only; earlier attempts' recorders died with their machines.
func (a *trial) result(name string, p Params, sw config.Software, hw config.Manycore, groups []*config.Group) *Result {
	res := &Result{
		Bench: name, Config: sw.Name, Params: p, HW: hw,
		Stats: a.st, Energy: energy.New(hw).Evaluate(a.st), Groups: groups,
	}
	if prof := a.m.CausalProfile(); prof != nil {
		res.Causal = causal.BuildReport(prof)
	}
	return res
}

func executeGPU(b Benchmark, p Params, opts ExecOpts) (*Result, error) {
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
	ctx, cancel := lifecycle.WithWallBudget(opts.Ctx, opts.WallBudget)
	defer cancel()
	opts.Ctx = ctx
	sim := gpu.NewSim(config.GPUDefault())
	var total gpu.Stats
	for _, k := range launches {
		if err := opts.stopBefore(name, "GPU", 1); err != nil {
			return nil, err
		}
		st, err := sim.Run(k, opts.MaxCycles)
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
// Dump errors are swallowed: forensics must never mask the run error. Every
// failure of a machine run is a *lifecycle.RunError, which carries the state
// dump the bundle records.
func maybeFlightDump(p *metrics.Plane, err error) {
	var re *lifecycle.RunError
	if p == nil || p.FlightDir() == "" || lifecycle.Interrupted(err) || !errors.As(err, &re) {
		return
	}
	var reason string
	switch {
	case lifecycle.WallBudget(err):
		reason = "wall_budget"
	case errors.Is(err, machine.ErrDeadlock):
		reason = "watchdog"
	case re.Stack != "":
		reason = "crash"
	default:
		return
	}
	_, _ = p.DumpFlight(reason, err, re.State)
}

// GPUSoftware is the Table 3 GPU row.
func GPUSoftware() config.Software {
	return config.Software{Name: "GPU", Style: config.StyleGPU, VLen: 1}
}

// Preset looks a Table 3 row up by name: "GPU" is GPUSoftware, any other
// name a config.Preset manycore row.
func Preset(name string) (config.Software, error) {
	if name == "GPU" {
		return GPUSoftware(), nil
	}
	return config.Preset(name)
}
