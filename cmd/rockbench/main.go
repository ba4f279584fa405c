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
// -check is the perf-regression gate: it re-runs every kernel x config the
// baseline file pins (at the baseline's own scale, ignoring -scale) and
// fails with per-run diff attribution unless every cycle count is
// bit-equal. -update-baseline re-records the file after an intentional
// performance change.
//
// The flags are rows of internal/cli's option table (README's flag table
// lists them all); the observability ones — -telemetry and -report
// directories, -causal, -flight, -pprof — change no cycle count.
// SIGINT/SIGTERM cancel the sweep cleanly (in-flight simulations abort at
// their next watchdog checkpoint, completed cells are kept, exit status
// 130), and -journal FILE with -resume reruns only the missing cells,
// producing final tables byte-identical to an uninterrupted run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"rockcress/internal/cli"
	"rockcress/internal/harness"
	"rockcress/internal/kernels"
	"rockcress/internal/lifecycle"
)

func main() { cli.Main(cli.Rockbench, run) }

func run(s *cli.Session) error {
	o := &s.Opts
	scale, err := kernels.ParseScale(o.Scale)
	if err != nil {
		return err
	}
	var baseline *harness.Baseline
	if o.Check != "" {
		if baseline, err = harness.ReadBaseline(o.Check); err != nil {
			return err
		}
		// The gate runs at the baseline's recorded scale, not -scale: the
		// pinned cycle counts mean nothing at any other input size.
		if scale, err = kernels.ParseScale(baseline.Scale); err != nil {
			return err
		}
	}
	r, err := newRunner(s, scale)
	if err != nil {
		return err
	}
	switch {
	case baseline != nil:
		return r.Check(baseline, os.Stdout)
	case o.UpdateBaseline != "":
		if err := r.WriteBaseline(o.UpdateBaseline); err != nil {
			return err
		}
		fmt.Printf("baseline written: %s (%s scale)\n", o.UpdateBaseline, scale)
	case o.Table != "":
		// harness.Tables and harness.Figures are the one lists of tables and
		// figures: the help, this dispatch, the unknown-name message and
		// -all's order all read them.
		for _, t := range harness.Tables {
			if t.Name == o.Table {
				t.Print(os.Stdout, scale)
				return nil
			}
		}
		return fmt.Errorf("unknown table %q (have: %s)", o.Table, harness.TableNames())
	case o.Fig != "":
		for _, f := range harness.Figures {
			if f.Name == o.Fig {
				if err := f.Fn(r, os.Stdout); err != nil {
					return err
				}
				reportThroughput(r)
				return nil
			}
		}
		return fmt.Errorf("unknown figure %q (have: %s)", o.Fig, harness.FigureNames())
	case o.All:
		for _, t := range harness.Tables {
			t.Print(os.Stdout, scale)
			fmt.Println()
		}
		// The paper's figures only: the robustness extensions (fault,
		// replay, netfault) are not part of -all.
		for _, f := range harness.Figures {
			if !f.Paper {
				continue
			}
			if err := f.Fn(r, os.Stdout); err != nil {
				return fmt.Errorf("figure %s: %w", f.Name, err)
			}
			fmt.Println()
		}
		reportThroughput(r)
	default:
		flag.Usage()
	}
	return nil
}

// newRunner is the sweep runner at scale: what every simulation shares,
// -j, the artifact directories, progress unless -q, and the -journal,
// fresh or (-resume) reloaded into the runner; its header pins -scale and
// -bench. The exit path closes the journal and, on an interrupt, says how
// to resume it.
func newRunner(s *cli.Session, scale kernels.Scale) (*harness.Runner, error) {
	o := &s.Opts
	if o.Resume && o.Journal == "" {
		return nil, errors.New("-resume requires -journal")
	}
	// An unknown -bench name is refused before any simulation; an empty
	// entry (a trailing comma) is not a name.
	var benches []string
	for _, n := range strings.Split(o.Bench, ",") {
		if n == "" {
			continue
		}
		if _, err := kernels.Get(n); err != nil {
			return nil, err
		}
		benches = append(benches, n)
	}
	var (
		journal *lifecycle.Journal
		seed    []lifecycle.JournalEntry
	)
	if o.Journal != "" {
		meta := map[string]string{"scale": o.Scale, "bench": o.Bench}
		var err error
		if o.Resume {
			journal, seed, err = lifecycle.ResumeJournal(o.Journal, meta)
		} else {
			journal, err = lifecycle.CreateJournal(o.Journal, meta)
		}
		if err != nil {
			return nil, err
		}
		s.OnExit(func(exitErr error) error {
			if lifecycle.Interrupted(exitErr) {
				fmt.Fprintf(os.Stderr, "rockbench: journal saved: rerun with -journal %s -resume to continue\n", o.Journal)
			}
			if err := journal.Close(); err != nil {
				return fmt.Errorf("journal: %w", err)
			}
			return nil
		})
	}
	r := harness.New(harness.Options{Ctx: s.Ctx, WallBudget: o.Timeout, Obs: s.Plane, Causal: o.Causal,
		Scale: scale, Out: os.Stdout, Verbose: !o.Quiet, Benches: benches, Jobs: o.Jobs,
		TelemetryDir: o.TelemetryDir, SampleEvery: o.Sample, ReportDir: o.ReportDir,
		Journal: journal})
	if len(seed) > 0 {
		n, err := r.SeedJournal(seed)
		if err != nil {
			return nil, err
		}
		if !o.Quiet {
			fmt.Printf("# resumed %d completed cells from %s\n", n, o.Journal)
		}
	}
	return r, nil
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
