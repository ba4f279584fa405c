package machine_test

// Determinism regression: every PolyBench kernel at tiny scale under NV, V4
// and V16 takes exactly the cycles bench/baseline.json pins, and the fault
// schedule the total testdata/fault_schedule.golden.txt pins. Any drift is
// a change to the simulated architecture, not to the wall clock.

import (
	"fmt"
	"reflect"
	"testing"

	"rockcress/internal/analyze"
	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/golden"
	"rockcress/internal/harness"
	"rockcress/internal/kernels"
	"rockcress/internal/stats"
)

// inertWorkers are values of kernels.ExecOpts.Workers, a field the engine
// ignores: it stays declared only because the benchmark driver in perf/
// sets it. The golden suites run each entry once per value (the subtests
// named w0..w8), so every value must reproduce the same golden counts,
// jumps and statistics — the field stays inert, and stores recycled
// between the concurrent runs leak nothing into the next one.
var inertWorkers = []int{0, 1, 2, 8}

// baselineEntries returns the pinned report of every PolyBench kernel under
// every harness.BaselineConfigs entry, read from bench/baseline.json. A
// cell the file lacks fails the test.
func baselineEntries(t *testing.T) []*analyze.Report {
	t.Helper()
	b, err := harness.ReadBaseline("../../bench/baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	if b.Scale != "tiny" {
		t.Fatalf("bench/baseline.json is recorded at %s scale, want tiny", b.Scale)
	}
	var entries []*analyze.Report
	for _, bench := range kernels.PolyBench() {
		for _, cfg := range harness.BaselineConfigs {
			key := bench.Info().Name + "/" + cfg
			if r, ok := b.Runs[key]; ok {
				entries = append(entries, r)
			} else {
				t.Errorf("bench/baseline.json lacks %s", key)
			}
		}
	}
	return entries
}

// TestGoldenCycleCounts runs all 15 kernels x NV/V4/V16 at tiny scale once
// per inertWorkers value and checks each against the golden count. The runs
// of one entry must also leave identical statistics, fast-forwards
// included. Entries run in parallel, so `go test -race` also sweeps
// concurrent machine instances across goroutines.
func TestGoldenCycleCounts(t *testing.T) {
	for _, e := range baselineEntries(t) {
		t.Run(e.Bench+"/"+e.Config, func(t *testing.T) {
			t.Parallel()
			bench, err := kernels.Get(e.Bench)
			if err != nil {
				t.Fatal(err)
			}
			sw, err := config.Preset(e.Config)
			if err != nil {
				t.Fatal(err)
			}
			var first *stats.Machine
			for _, workers := range inertWorkers {
				t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
					res, err := kernels.ExecuteOpts(bench, bench.Defaults(kernels.Tiny), sw,
						config.ManycoreDefault(), kernels.ExecOpts{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					if got := res.Cycles(); got != e.Cycles {
						t.Errorf("cycles = %d, want %d (bench/baseline.json)", got, e.Cycles)
					}
					st := *res.Stats
					st.WallNs = 0 // host time
					if first == nil {
						first = &st
					} else if !reflect.DeepEqual(&st, first) {
						t.Errorf("statistics differ from the w%d run (%d fast-forwards over %d cycles, then %d over %d)",
							inertWorkers[0], first.FastForwards, first.SkippedCycles, st.FastForwards, st.SkippedCycles)
					}
				})
			}
		})
	}
}

// TestGoldenFaultSchedule checks the fault-injection path through the
// engine: a two-kill schedule on mvt/V4 must burn the total cycle count
// (across all degraded attempts) testdata/fault_schedule.golden.txt pins,
// once per inertWorkers value.
func TestGoldenFaultSchedule(t *testing.T) {
	for _, workers := range inertWorkers {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			t.Parallel()
			bench, err := kernels.Get("mvt")
			if err != nil {
				t.Fatal(err)
			}
			sw, err := config.Preset("V4")
			if err != nil {
				t.Fatal(err)
			}
			hw := config.ManycoreDefault()
			plan := fault.KillPlan(0x5eed, 2, hw.Cores, 800, 101)
			fr, err := kernels.ExecuteWithFaultsOpts(bench, bench.Defaults(kernels.Tiny),
				sw, hw, plan, kernels.ExecOpts{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, "testdata/fault_schedule.golden.txt",
				fmt.Appendf(nil, "mvt V4+faults %d\n", fr.TotalCycles))
		})
	}
}
