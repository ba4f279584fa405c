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
// Observability: -trace out.json writes a Chrome trace-event / Perfetto
// event trace (ring sized by -trace-buf; a warning reports overwritten
// events; its barrier.release events are the timestamped barrier trace),
// -telemetry out.jsonl writes cycle-windowed counter deltas (window size
// -sample N), -report out.json writes the canonical per-run report with a
// bottleneck verdict (see rockdoctor), -prof prints the engine's per-stage
// wall-time self-profile, and -pprof file.pb.gz writes
// a CPU profile. -listen ADDR serves the live observability plane over HTTP
// (/metrics, /debug/run, /debug/machine, /debug/flight, /debug/pprof/) and
// -flight DIR arms automatic flight-recorder dumps on watchdog trips, wall
// budget expiry, contained crashes, and SIGQUIT. None of them change
// simulated cycle counts. A failed telemetry or trace write exits nonzero.
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
	"context"
	"flag"
	"fmt"
	"os"

	"rockcress/internal/analyze"
	"rockcress/internal/asm"
	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/kernels"
	"rockcress/internal/lifecycle"
	"rockcress/internal/metrics"
	"rockcress/internal/sim"
	"rockcress/internal/trace"
)

// failSink lets fatal flush a truncation-marked trace/telemetry artifact
// instead of leaving a torn or empty file behind an aborted run.
var failSink *trace.Sink

func main() {
	var (
		benchName = flag.String("bench", "gemm", "benchmark name (see rockbench -table 2)")
		cfgName   = flag.String("config", "NV", "Table 3 configuration name, or GPU")
		scaleName = flag.String("scale", "small", "input scale: tiny, small, full")
		maxCycles = flag.Int64("max-cycles", kernels.DefaultMaxCycles, "simulation budget")
		verbose   = flag.Bool("v", false, "print per-core CPI stack and energy split")
		dumpAsm   = flag.Bool("dump-asm", false, "print the built program's disassembly and exit")
		faultSpec = flag.String("faults", "", `fault schedule, e.g. "seed=42;kill@3000:t12;cutlink@2000:5>6;killbank@4000:b3"`)
		traceOut  = flag.String("trace", "", "write a Chrome trace-event / Perfetto JSON event trace to this file")
		traceBuf  = flag.Int("trace-buf", trace.DefaultEventCap, "event-trace ring capacity; oldest events drop (with a warning) when exceeded")
		telemOut  = flag.String("telemetry", "", "write cycle-windowed telemetry (JSONL) to this file")
		reportOut = flag.String("report", "", "write the canonical per-run report (JSON, for rockdoctor) to this file")
		sampleN   = flag.Int64("sample", trace.DefaultSampleEvery, "telemetry window size in cycles")
		profEng   = flag.Bool("prof", false, "print the engine's per-stage wall-time self-profile")
		pprofOut  = flag.String("pprof", "", "write a CPU profile to this file")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget for the run (0 = unlimited); exceeded runs fail with a diagnostic snapshot")
		listen    = flag.String("listen", "", metrics.ListenHelp)
		flightDir = flag.String("flight", "", "write flight-recorder bundles into this directory when the run dies badly (watchdog, wall budget, crash), on SIGQUIT, or on the first SIGINT")
		causalOn  = flag.Bool("causal", false, "record the causal profile (critical-path buckets, slack, what-if projections); cycle counts are bit-identical with or without it")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the run at its next watchdog checkpoint; the
	// trace/telemetry sink is still flushed, truncation-marked, on the way
	// out. A second signal kills the process immediately.
	ctx, stop := lifecycle.WithSignals(context.Background())
	defer stop()

	opts := kernels.ExecOpts{
		MaxCycles:  *maxCycles,
		Ctx:        ctx,
		WallBudget: *timeout,
		Causal:     *causalOn,
	}
	plane, stopObs, err := metrics.StartCLI("rocksim", *listen, *flightDir, *pprofOut)
	if err != nil {
		fatal(err)
	}
	defer stopObs()
	opts.Obs = plane
	var sink *trace.Sink
	if *traceOut != "" || *telemOut != "" || plane != nil {
		// With a plane the machine feeds the flight recorder's window ring.
		cfg := trace.Config{SampleEvery: *sampleN, EventCap: *traceBuf, Retain: plane != nil}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			cfg.EventsTo = f
		}
		if *telemOut != "" {
			f, err := os.Create(*telemOut)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			cfg.SampleTo = f
		}
		sink = trace.NewSink(cfg)
		opts.Trace = sink
		failSink = sink
	}
	var prof *sim.Prof
	if *profEng {
		prof = &sim.Prof{}
		opts.Prof = prof
	}

	scale, err := kernels.ParseScale(*scaleName)
	if err != nil {
		fatal(err)
	}
	bench, err := kernels.Get(*benchName)
	if err != nil {
		fatal(err)
	}
	var sw config.Software
	if *cfgName == "GPU" {
		if *reportOut != "" {
			fatal(fmt.Errorf("-report needs machine counters; the GPU model has none"))
		}
		if *dumpAsm {
			fatal(fmt.Errorf("-dump-asm: the GPU model runs wavefront traces, not a program"))
		}
		sw = kernels.GPUSoftware()
	} else if sw, err = config.Preset(*cfgName); err != nil {
		fatal(err)
	}
	if *dumpAsm {
		if err := dumpProgram(bench, scale, sw); err != nil {
			fatal(err)
		}
		return
	}
	if *faultSpec != "" {
		plan, err := fault.Parse(*faultSpec)
		if err != nil {
			fatal(err)
		}
		res := runFaulted(bench, scale, sw, opts, plan, *verbose)
		finish(*reportOut, res, *scaleName, sink, prof)
		return
	}
	res, err := kernels.ExecuteOpts(bench, bench.Defaults(scale), sw, config.ManycoreDefault(), opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s / %s (%s scale)\n", res.Bench, res.Config, scale)
	if res.GPU != nil {
		g := res.GPU
		fmt.Printf("cycles: %d\nwavefronts: %d\ncompute ops: %d loads: %d stores: %d\n",
			g.Cycles, g.Wavefronts, g.ComputeOps, g.LoadOps, g.StoreOps)
		fmt.Printf("lines: %d (tcp %d, tcc %d, llc %d, dram %d)\n",
			g.Lines, g.TCPHits, g.TCCHits, g.LLCHits, g.DramLines)
		return
	}
	fmt.Print(res.Stats.Summary())
	fmt.Printf("result check: passed (vs serial reference)\n")
	if *verbose {
		fmt.Printf("energy: %s\n", res.Energy)
		fmt.Printf("vloads: %d microthreads: %d remote stores: %d\n",
			sumVloads(res), sumMts(res), res.Stats.RemoteStores)
	}
	finish(*reportOut, res, *scaleName, sink, prof)
}

// finish emits the per-run report, flushes the observability sink (warning
// when the event ring overwrote anything), and prints the engine
// self-profile. Any report or flush failure exits nonzero: a silently
// truncated artifact would poison whatever reads it later. fatal paths
// flush too, but truncation-marked (see fatal), so an aborted run leaves a
// valid, honestly-labeled partial artifact rather than a torn file.
func finish(reportPath string, res *kernels.Result, scaleName string, sink *trace.Sink, prof *sim.Prof) {
	failed := false
	var rep *analyze.Report
	if reportPath != "" || res.Causal != nil {
		rep = analyze.New(analyze.Meta{Bench: res.Bench, Config: res.Config, Scale: scaleName},
			res.Stats, res.Groups, res.HW)
		rep.CriticalPath = res.Causal
		rep.Build = analyze.CurrentBuild()
	}
	if res.Causal != nil {
		fmt.Println()
		if err := analyze.RenderCriticalPath(os.Stdout, rep); err != nil {
			fmt.Fprintln(os.Stderr, "rocksim:", err)
			failed = true
		}
	}
	if reportPath != "" {
		if err := rep.WriteFile(reportPath); err != nil {
			fmt.Fprintln(os.Stderr, "rocksim:", err)
			failed = true
		} else {
			fmt.Printf("bottleneck: %s (report: %s)\n", rep.Bottleneck.Label, reportPath)
		}
	}
	if rec := sink.Recorder(); rec != nil {
		if d := rec.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr,
				"rocksim: warning: event ring overwrote %d events; raise -trace-buf (now %d) to keep the whole run\n",
				d, rec.Cap())
		}
	}
	if err := sink.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "rocksim:", err)
		failed = true
	}
	if prof != nil {
		fmt.Print(prof.String())
	}
	if failed {
		os.Exit(1)
	}
}

// runFaulted runs the benchmark under a fault schedule via the graceful
// degradation harness and prints the final statistics plus what it cost.
func runFaulted(bench kernels.Benchmark, scale kernels.Scale, sw config.Software,
	opts kernels.ExecOpts, plan *fault.Plan, verbose bool) *kernels.Result {
	fr, err := kernels.ExecuteWithFaultsOpts(bench, bench.Defaults(scale), sw,
		config.ManycoreDefault(), plan, opts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s / %s (%s scale, faults: %s)\n", fr.Result.Bench, fr.Result.Config, scale, plan)
	fmt.Print(fr.Result.Stats.Summary())
	fmt.Printf("result check: passed (vs serial reference)\n")
	if fr.Report != nil {
		fmt.Printf("faults: %s\n", fr.Report)
	}
	fmt.Printf("attempts: %d  total cycles incl. aborted attempts: %d\n", fr.Attempts, fr.TotalCycles)
	if fr.MIMDFallback {
		fmt.Println("vector groups could not re-form: finished in MIMD fallback")
	}
	if verbose {
		fmt.Printf("energy: %s\n", fr.Result.Energy)
	}
	return fr.Result
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

func sumVloads(res *kernels.Result) int64 {
	var t int64
	for i := range res.Stats.Cores {
		t += res.Stats.Cores[i].VloadsIssued
	}
	return t
}

func sumMts(res *kernels.Result) int64 {
	var t int64
	for i := range res.Stats.Cores {
		t += res.Stats.Cores[i].Microthreads
	}
	return t
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rocksim:", err)
	if failSink != nil {
		// The machine's own flush already marked truncation for errors inside
		// a run; marking again here (idempotent) also covers failures before
		// or between runs, so every aborted artifact carries the marker.
		if rec := failSink.Recorder(); rec != nil {
			rec.MarkTruncated()
		}
		if smp := failSink.Sampler(); smp != nil {
			smp.MarkTruncated()
		}
		if cerr := failSink.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "rocksim:", cerr)
		}
	}
	if lifecycle.Interrupted(err) {
		os.Exit(lifecycle.ExitCodeInterrupted)
	}
	os.Exit(1)
}
