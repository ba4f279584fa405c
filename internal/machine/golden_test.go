package machine_test

// Determinism regression: every kernel at tiny scale must produce cycle
// counts bit-identical to the pre-engine serial simulator (the golden
// file). The golden values in testdata/golden_tiny.txt were recorded from
// the seed tree before the staged engine landed; any drift here means the
// engine changed the architecture, not just the wall clock.

import (
	"bufio"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/fault"
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

type goldenEntry struct {
	bench  string
	config string
	cycles int64
}

func readGolden(t *testing.T) (entries []goldenEntry, faultCycles int64) {
	t.Helper()
	f, err := os.Open("testdata/golden_tiny.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("golden line %q: want 3 fields", line)
		}
		n, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			t.Fatalf("golden line %q: %v", line, err)
		}
		if fields[1] == "V4+faults" {
			faultCycles = n
			continue
		}
		entries = append(entries, goldenEntry{bench: fields[0], config: fields[1], cycles: n})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 || faultCycles == 0 {
		t.Fatalf("golden file incomplete: %d entries, fault cycles %d", len(entries), faultCycles)
	}
	return entries, faultCycles
}

// TestGoldenCycleCounts runs all 15 kernels x NV/V4/V16 at tiny scale once
// per inertWorkers value and checks each against the golden count. The runs
// of one entry must also leave identical statistics, fast-forwards
// included. Entries run in parallel, so `go test -race` also sweeps
// concurrent machine instances across goroutines.
func TestGoldenCycleCounts(t *testing.T) {
	entries, _ := readGolden(t)
	for _, e := range entries {
		t.Run(e.bench+"/"+e.config, func(t *testing.T) {
			t.Parallel()
			bench, err := kernels.Get(e.bench)
			if err != nil {
				t.Fatal(err)
			}
			sw, err := config.Preset(e.config)
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
					if got := res.Cycles(); got != e.cycles {
						t.Errorf("cycles = %d, want golden %d", got, e.cycles)
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
// engine: a two-kill schedule on mvt/V4 must burn the golden total cycle
// count (across all degraded attempts), once per inertWorkers value.
func TestGoldenFaultSchedule(t *testing.T) {
	_, faultCycles := readGolden(t)
	for _, workers := range inertWorkers {
		workers := workers
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
			if fr.TotalCycles != faultCycles {
				t.Errorf("total cycles = %d (attempts %d), want golden %d",
					fr.TotalCycles, fr.Attempts, faultCycles)
			}
		})
	}
}
