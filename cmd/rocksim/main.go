// Command rocksim runs one benchmark under one Table 3 configuration on
// the Rockcress simulator and prints its statistics.
//
// Usage:
//
//	rocksim -bench gemm -config V4 [-scale small] [-v]
//	rocksim -bench mvt -config V4 -faults "seed=42;kill@3000:t12"
//
// One simulation runs on one goroutine; to use more cores, run a sweep
// (rockbench -j).
//
// The flags are rows of internal/cli's option table (README's flag table
// lists them all). The observability ones (-trace, -telemetry, -report,
// -causal, -prof, -pprof, -listen, -flight) change no simulated cycle
// count, and a failed artifact write exits nonzero.
//
// Configurations are the Table 3 names (NV, NV_PF, PCV_PF, V4, V16,
// V4_PCV, V16_PCV, V4_LL_PCV, V16_LL, V16_LL_PCV) plus GPU. The -faults
// schedule syntax is documented in internal/fault (kill, drop, corrupt,
// stick, flip, panic events, plus the permanent-topology verbs cutlink,
// killrouter, killbank, and dramdegrade); the run degrades gracefully —
// rerouting around cut links and dead routers, failing LLC slices over to
// surviving banks — and reports what died.
package main

import (
	"errors"
	"fmt"
	"os"

	"rockcress/internal/analyze"
	"rockcress/internal/asm"
	"rockcress/internal/cli"
	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/kernels"
	"rockcress/internal/metrics"
	"rockcress/internal/sim"
	"rockcress/internal/trace"
)

func main() { cli.Main(cli.Rocksim, run) }

func run(s *cli.Session) error {
	o := &s.Opts
	scale, err := kernels.ParseScale(o.Scale)
	if err != nil {
		return err
	}
	bench, err := kernels.Get(o.Bench)
	if err != nil {
		return err
	}
	var sw config.Software
	if o.Config == "GPU" {
		if o.Report != "" {
			return fmt.Errorf("-report needs machine counters; the GPU model has none")
		}
		if o.DumpAsm {
			return fmt.Errorf("-dump-asm: the GPU model runs wavefront traces, not a program")
		}
		sw = kernels.GPUSoftware()
	} else if sw, err = config.Preset(o.Config); err != nil {
		return err
	}
	if o.DumpAsm {
		return dumpProgram(bench, scale, sw)
	}
	var plan *fault.Plan
	if o.Faults != "" {
		if plan, err = fault.Parse(o.Faults); err != nil {
			return err
		}
	}
	// SIGINT/SIGTERM cancel the run at its next watchdog checkpoint; the
	// session flushes the trace/telemetry sink on the way out, and the run
	// has marked it truncated. A second signal kills the process immediately.
	opts, completed, err := execOpts(s)
	if err != nil {
		return err
	}
	fr, err := kernels.ExecuteWithFaultsOpts(bench, bench.Defaults(scale), sw, config.ManycoreDefault(), plan, opts)
	if err != nil {
		return err
	}
	completed()
	res := fr.Result
	if plan != nil {
		fmt.Printf("%s / %s (%s scale, faults: %s)\n", res.Bench, res.Config, scale, plan)
	} else {
		fmt.Printf("%s / %s (%s scale)\n", res.Bench, res.Config, scale)
	}
	if res.GPU != nil {
		g := res.GPU
		fmt.Printf("cycles: %d\nwavefronts: %d\ncompute ops: %d loads: %d stores: %d\n",
			g.Cycles, g.Wavefronts, g.ComputeOps, g.LoadOps, g.StoreOps)
		fmt.Printf("lines: %d (tcp %d, tcc %d, llc %d, dram %d)\n",
			g.Lines, g.TCPHits, g.TCCHits, g.LLCHits, g.DramLines)
		return nil
	}
	fmt.Print(res.Stats.Summary())
	fmt.Printf("result check: passed (vs serial reference)\n")
	if plan != nil {
		if fr.Report != nil {
			fmt.Printf("faults: %s\n", fr.Report)
		}
		fmt.Printf("attempts: %d  total cycles incl. aborted attempts: %d\n", fr.Attempts, fr.TotalCycles)
		if fr.MIMDFallback {
			fmt.Println("vector groups could not re-form: finished in MIMD fallback")
		}
	}
	if o.Verbose {
		fmt.Printf("energy: %s\n", res.Energy)
	}
	if o.Verbose && plan == nil {
		var vloads, mts int64
		for i := range res.Stats.Cores {
			vloads += res.Stats.Cores[i].VloadsIssued
			mts += res.Stats.Cores[i].Microthreads
		}
		fmt.Printf("vloads: %d microthreads: %d remote stores: %d\n", vloads, mts, res.Stats.RemoteStores)
	}
	return finish(o.Report, res, o.Scale, opts.Prof)
}

// execOpts is the options of the process's one simulation: cancellation,
// the wall budget, the causal profiler, the live plane, the -prof engine
// profile, and a sink writing -trace and -telemetry. The caller calls
// completed once the run has returned. The exit path closes the sink and
// its files: a run that fails has truncation-marked them itself, a command
// that fails before its run completes (a plan the fabric rejects, a program
// that does not build) has them marked here, and a failure after a
// completed run (a -report write) leaves them unmarked.
func execOpts(s *cli.Session) (opts kernels.ExecOpts, completed func(), err error) {
	o := &s.Opts
	opts = kernels.ExecOpts{Ctx: s.Ctx, WallBudget: o.Timeout, Causal: o.Causal, Obs: s.Plane}
	if o.Prof {
		opts.Prof = &sim.Prof{}
	}
	ran := false
	completed = func() { ran = true }
	if o.Trace == "" && o.Telemetry == "" {
		return opts, completed, nil
	}
	cfg := trace.Config{SampleEvery: o.Sample, EventCap: o.TraceBuf}
	if cfg.EventsTo, err = s.Create(o.Trace); err != nil {
		return opts, completed, err
	}
	if cfg.SampleTo, err = s.Create(o.Telemetry); err != nil {
		return opts, completed, err
	}
	sink := trace.NewSink(cfg)
	// Registered after its files, so it flushes before they close.
	s.OnExit(func(exitErr error) error {
		rec, smp := sink.Recorder(), sink.Sampler()
		if exitErr != nil && !ran {
			if rec != nil {
				rec.MarkTruncated()
			}
			if smp != nil {
				smp.MarkTruncated()
			}
		}
		if rec != nil && rec.Dropped() > 0 {
			fmt.Fprintf(os.Stderr, "rocksim: warning: event ring overwrote %d events; raise -trace-buf (now %d) to keep the whole run\n",
				rec.Dropped(), rec.Cap())
		}
		return sink.Close()
	})
	opts.Trace = sink
	return opts, completed, nil
}

// finish prints the causal profile, writes the per-run report and prints
// the engine self-profile. A report failure fails the command: a silently
// missing artifact would poison whatever reads it later. The session's exit
// path flushes the trace/telemetry sink.
func finish(reportPath string, res *kernels.Result, scaleName string, prof *sim.Prof) error {
	var rep *analyze.Report
	if reportPath != "" || res.Causal != nil {
		rep = analyze.New(analyze.Meta{Bench: res.Bench, Config: res.Config, Scale: scaleName},
			res.Stats, res.Groups, res.HW)
		rep.CriticalPath = res.Causal
		rep.Build = metrics.CurrentBuild()
	}
	var errs []error
	if res.Causal != nil {
		fmt.Println()
		errs = append(errs, analyze.RenderCriticalPath(os.Stdout, rep))
	}
	if reportPath != "" {
		if err := rep.WriteFile(reportPath); err != nil {
			errs = append(errs, err)
		} else {
			fmt.Printf("bottleneck: %s (report: %s)\n", rep.Bottleneck.Label, reportPath)
		}
	}
	if prof != nil {
		fmt.Print(prof.String())
	}
	return errors.Join(errs...)
}

// dumpProgram builds the benchmark's program for the configuration and
// prints its assembly (what the paper's compiler pipeline would emit).
func dumpProgram(bench kernels.Benchmark, scale kernels.Scale, sw config.Software) error {
	p := bench.Defaults(scale)
	img, err := bench.Prepare(p)
	if err != nil {
		return err
	}
	hw := sw.Apply(config.ManycoreDefault())
	groups, err := kernels.GroupsFor(sw, hw)
	if err != nil {
		return err
	}
	ctx := kernels.NewCtx(p, img, sw, hw, groups)
	if err := bench.Build(ctx); err != nil {
		return err
	}
	prog, err := ctx.B.Build()
	if err != nil {
		return err
	}
	fmt.Printf("# %s / %s: %d instructions\n", bench.Info().Name, sw.Name, len(prog.Code))
	fmt.Print(asm.Disassemble(prog))
	return nil
}
