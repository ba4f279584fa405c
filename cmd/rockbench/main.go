// Command rockbench regenerates the paper's tables and figures on the
// Rockcress simulator.
//
// Usage:
//
//	rockbench -table 1a|1b|2|3
//	rockbench -fig NAME [-scale small|full] [-bench name,...]   (-h lists the names)
//	rockbench -all [-scale small|full]
//	rockbench -check bench/baseline.json
//	rockbench -update-baseline bench/baseline.json [-scale tiny]
//
// Each figure's independent simulations run on a worker pool of -j
// goroutines (default GOMAXPROCS). The output — every cycle count, table
// row, and progress line, in order — is identical for any -j.
//
// Absolute cycle counts are the simulator's, not the paper's gem5 testbed;
// EXPERIMENTS.md records the shape comparison per figure.
//
// -telemetry DIR writes one cycle-windowed JSONL file per simulation
// (window size -sample N) and -report DIR one canonical report
// (rockdoctor's input) per simulation, neither changing any cycle count;
// -pprof FILE writes a CPU profile of the whole sweep.
//
// -listen ADDR serves the live observability plane over HTTP while the
// sweep runs: Prometheus metrics on /metrics, sweep progress and the
// simulated-MIPS meter on /debug/run (rockdoctor watch renders it), a
// per-tile stall heatmap and per-link NoC hop rates on /debug/machine, the
// flight recorder's rings on /debug/flight, and live pprof (CPU, heap,
// block, mutex, goroutine) under /debug/pprof/. -flight DIR arms the flight
// recorder's automatic forensic dumps: when a run trips the deadlock
// watchdog, exhausts its wall budget, or crashes (contained), a bundle of
// the most recent telemetry windows and rare-event notes is written there;
// SIGQUIT dumps one on demand without stopping the sweep. Neither flag
// changes any simulated cycle count.
//
// -check is the perf-regression gate: it re-runs every kernel x config the
// baseline file pins (at the baseline's own scale, ignoring -scale) and
// fails with per-run diff attribution unless every cycle count is
// bit-equal. -update-baseline re-records the file after an intentional
// performance change.
//
// Lifecycle: SIGINT/SIGTERM cancel the sweep cleanly (in-flight simulations
// abort at their next watchdog checkpoint, completed cells are kept, exit
// status 130); -timeout D bounds each simulation's wall-clock time;
// -journal FILE records every completed cell crash-safely, and -resume
// reloads it so a rerun skips the completed cells and produces final tables
// byte-identical to an uninterrupted run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"rockcress/internal/harness"
	"rockcress/internal/kernels"
	"rockcress/internal/lifecycle"
	"rockcress/internal/metrics"
	"rockcress/internal/trace"
)

// journalHint is printed on an interrupted exit so the user knows the sweep
// is resumable.
var journalHint string

func main() {
	// harness.Figures is the one list of figures: the -fig help, its
	// dispatch, the unknown-figure message and -all's order all read it.
	var figList []string
	for _, f := range harness.Figures {
		figList = append(figList, f.Name)
	}
	figNames := strings.Join(figList, ", ")
	var (
		tableName  = flag.String("table", "", "table to print: 1a, 1b, 2, 3")
		figName    = flag.String("fig", "", "figure to regenerate: "+figNames)
		allFlag    = flag.Bool("all", false, "regenerate every table and figure")
		scaleName  = flag.String("scale", "small", "input scale: tiny, small, full")
		benchCSV   = flag.String("bench", "", "comma-separated benchmark subset")
		quiet      = flag.Bool("q", false, "suppress per-run progress lines")
		jobs       = flag.Int("j", runtime.GOMAXPROCS(0), "parallel simulations per figure sweep (results are identical for any value)")
		telemDir   = flag.String("telemetry", "", "write per-run cycle-windowed telemetry (JSONL) into this directory")
		sampleN    = flag.Int64("sample", trace.DefaultSampleEvery, "telemetry window size in cycles")
		reportDir  = flag.String("report", "", "write per-run reports (rockdoctor JSON) into this directory")
		checkPath  = flag.String("check", "", "perf gate: verify cycle counts against this baseline file and exit nonzero on drift")
		updatePath = flag.String("update-baseline", "", "re-record the baseline file at -scale")
		pprofOut   = flag.String("pprof", "", "write a CPU profile of the sweep to this file")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget per simulation (0 = unlimited); a run exceeding it fails its sweep cell")
		jrnlPath   = flag.String("journal", "", "record completed sweep cells crash-safely into this file")
		resume     = flag.Bool("resume", false, "reload -journal and skip its completed cells (final tables are byte-identical to an uninterrupted run)")
		listenAddr = flag.String("listen", "", metrics.ListenHelp)
		flightDir  = flag.String("flight", "", "write flight-recorder bundles into this directory when a run dies badly (watchdog, wall budget, crash), on SIGQUIT, or on the first SIGINT")
		causalOn   = flag.Bool("causal", false, "record causal profiles (critical_path sections in -report files); cycle counts are bit-identical with or without it")
	)
	flag.Parse()

	// First SIGINT/SIGTERM cancels the sweep at the next watchdog
	// checkpoints; a second signal kills the process the OS way.
	ctx, stop := lifecycle.WithSignals(context.Background())
	defer stop()

	plane, stopObs, err := metrics.StartCLI("rockbench", *listenAddr, *flightDir, *pprofOut)
	if err != nil {
		fatal(err)
	}
	defer stopObs()

	scale, err := kernels.ParseScale(*scaleName)
	if err != nil {
		fatal(err)
	}
	var benches []string
	if *benchCSV != "" {
		benches = strings.Split(*benchCSV, ",")
	}

	// The journal pins the sweep definition: resuming under a different
	// selector or scale would silently skip the wrong cells, so the meta
	// check refuses it. Cell results are fsynced as they land; a crash or
	// interrupt anywhere leaves a replayable prefix.
	var (
		journal *lifecycle.Journal
		seed    []lifecycle.JournalEntry
	)
	if *resume && *jrnlPath == "" {
		fatal(errors.New("-resume requires -journal"))
	}
	if *jrnlPath != "" {
		meta := map[string]string{"scale": *scaleName, "bench": *benchCSV}
		if *resume {
			journal, seed, err = lifecycle.ResumeJournal(*jrnlPath, meta)
		} else {
			journal, err = lifecycle.CreateJournal(*jrnlPath, meta)
		}
		if err != nil {
			fatal(err)
		}
		// Close runs only on the clean-exit path (fatal skips defers, but
		// every Record is already fsynced); it surfaces any latched append
		// error so a silently unrecordable sweep cannot look resumable.
		defer func() {
			if cerr := journal.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "rockbench: journal:", cerr)
				os.Exit(1)
			}
		}()
		journalHint = fmt.Sprintf("journal saved: rerun with -journal %s -resume to continue", *jrnlPath)
	}

	newRunner := func(s kernels.Scale) *harness.Runner {
		r := harness.New(harness.Options{
			Scale: s, Out: os.Stdout, Verbose: !*quiet, Benches: benches, Jobs: *jobs,
			TelemetryDir: *telemDir, SampleEvery: *sampleN, ReportDir: *reportDir,
			Ctx: ctx, WallBudget: *timeout, Journal: journal, Obs: plane,
			Causal: *causalOn,
		})
		if len(seed) > 0 {
			n, err := r.SeedJournal(seed)
			if err != nil {
				fatal(err)
			}
			if !*quiet {
				fmt.Printf("# resumed %d completed cells from %s\n", n, *jrnlPath)
			}
		}
		return r
	}

	if *checkPath != "" {
		b, err := harness.ReadBaseline(*checkPath)
		if err != nil {
			fatal(err)
		}
		// The gate runs at the baseline's recorded scale, not -scale: the
		// pinned cycle counts mean nothing at any other input size.
		bscale, err := kernels.ParseScale(b.Scale)
		if err != nil {
			fatal(err)
		}
		if err := newRunner(bscale).Check(b, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *updatePath != "" {
		if err := newRunner(scale).WriteBaseline(*updatePath); err != nil {
			fatal(err)
		}
		fmt.Printf("baseline written: %s (%s scale)\n", *updatePath, scale)
		return
	}

	r := newRunner(scale)
	if *tableName != "" {
		if err := printTable(*tableName, scale); err != nil {
			fatal(err)
		}
		return
	}
	if *figName != "" {
		for _, f := range harness.Figures {
			if f.Name == *figName {
				if err := f.Fn(r, os.Stdout); err != nil {
					fatal(err)
				}
				reportThroughput(r)
				return
			}
		}
		fatal(fmt.Errorf("unknown figure %q (have: %s)", *figName, figNames))
	}
	if *allFlag {
		for _, name := range []string{"1a", "1b", "2", "3"} {
			if err := printTable(name, scale); err != nil {
				fatal(err)
			}
			fmt.Println()
		}
		// The paper's figures only: the robustness extensions (fault,
		// replay, netfault) are not part of -all.
		for _, f := range harness.Figures {
			if !f.Paper {
				continue
			}
			if err := f.Fn(r, os.Stdout); err != nil {
				fatal(fmt.Errorf("figure %s: %w", f.Name, err))
			}
			fmt.Println()
		}
		reportThroughput(r)
		return
	}
	flag.Usage()
}

// reportThroughput prints the sweep's simulated-cycles-per-wall-second
// meter. It goes to stderr: stdout carries the tables and cycle counts that
// baselines and golden comparisons consume, and this line is wall-clock
// dependent by definition.
func reportThroughput(r *harness.Runner) {
	cycles, wallNs := r.Throughput()
	if wallNs <= 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "# simulated %d cycles in %.2fs host time: %.2f Msim-cycles/s\n",
		cycles, float64(wallNs)/1e9, float64(cycles)*1e3/float64(wallNs))
}

func printTable(name string, scale kernels.Scale) error {
	switch name {
	case "1a":
		harness.Table1a(os.Stdout)
	case "1b":
		harness.Table1b(os.Stdout)
	case "2":
		harness.Table2(os.Stdout, scale)
	case "3":
		harness.Table3(os.Stdout)
	default:
		return fmt.Errorf("unknown table %q", name)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rockbench:", err)
	if lifecycle.Interrupted(err) {
		if journalHint != "" {
			fmt.Fprintln(os.Stderr, "rockbench:", journalHint)
		}
		os.Exit(lifecycle.ExitCodeInterrupted)
	}
	os.Exit(1)
}
