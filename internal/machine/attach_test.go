package machine_test

import (
	"fmt"
	"io"
	"reflect"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/kernels"
	"rockcress/internal/machine"
	"rockcress/internal/metrics"
	"rockcress/internal/sim"
	"rockcress/internal/stats"
	"rockcress/internal/trace"
)

// TestAttachmentsDoNotPerturb crosses the machine's two attachments: mvt/V4
// Tiny, fault-free and under the TestGoldenFaultSchedule kill plan, run bare
// and with every observer attached (sink, plane, causal profiler, engine
// profile), at two of the inertWorkers values. Along the observer axis the
// ladder's cycles, the surviving attempt's Stats and the merged fault report
// must be identical — the observers read the fabric and the fault stack,
// and change neither.
func TestAttachmentsDoNotPerturb(t *testing.T) {
	bench, err := kernels.Get("mvt")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := config.Preset("V4")
	if err != nil {
		t.Fatal(err)
	}
	hw := config.ManycoreDefault()
	type outcome struct {
		attempts int
		cycles   int64
		st       stats.Machine
		report   *fault.Report
	}
	run := func(t *testing.T, plan *fault.Plan, observed bool, workers int) outcome {
		opts := kernels.ExecOpts{Workers: workers}
		if observed {
			sink := trace.NewSink(trace.Config{SampleEvery: 256, SampleTo: io.Discard, EventsTo: io.Discard})
			defer sink.Close()
			opts.Trace, opts.Obs = sink, metrics.NewPlane("")
			opts.Causal, opts.Prof = true, &sim.Prof{}
		}
		fr, err := kernels.ExecuteWithFaultsOpts(bench, bench.Defaults(kernels.Tiny), sw, hw, plan, opts)
		if err != nil {
			t.Fatal(err)
		}
		if observed && fr.Causal == nil {
			t.Error("causal profiler attached but the result carries no report")
		}
		st := *fr.Stats
		st.WallNs = 0 // host time
		return outcome{fr.Attempts, fr.TotalCycles, st, fr.Report}
	}
	plans := map[string]func() *fault.Plan{
		"nofaults": func() *fault.Plan { return nil },
		"kills":    func() *fault.Plan { return fault.KillPlan(0x5eed, 2, hw.Cores, 800, 101) },
	}
	for name, mkPlan := range plans {
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				t.Parallel()
				bare := run(t, mkPlan(), false, workers)
				seen := run(t, mkPlan(), true, workers)
				if bare.attempts != seen.attempts || bare.cycles != seen.cycles {
					t.Errorf("observed run took %d attempts / %d cycles, bare %d / %d",
						seen.attempts, seen.cycles, bare.attempts, bare.cycles)
				}
				if !reflect.DeepEqual(bare.st, seen.st) {
					t.Errorf("Stats differ with observers attached:\nbare %+v\nseen %+v", bare.st, seen.st)
				}
				if !reflect.DeepEqual(bare.report, seen.report) {
					t.Errorf("fault report differs with observers attached:\nbare %+v\nseen %+v", bare.report, seen.report)
				}
				if name == "kills" && (bare.report == nil || len(bare.report.DeadTiles) != 2) {
					t.Errorf("kill plan should bury two tiles, report %+v", bare.report)
				}
			})
		}
	}
}

// TestCausalBooksEveryTileCycle holds the causal profiler to the stall
// histogram's cycle count tile by tile: every cycle a core accounts — ticked
// or back-filled after parking — books exactly one resource class, so each
// tile's class counts sum to its stats.Core.Cycles. A booking site that
// forgets its class, or books one twice, breaks the sum on its tile.
func TestCausalBooksEveryTileCycle(t *testing.T) {
	for _, tc := range []struct{ bench, cfg string }{
		{"gemm", "NV"}, {"mvt", "V4"}, {"atax", "V16"}, {"fdtd-2d", "V4"}, {"bfs", "V16"},
	} {
		t.Run(tc.bench+"/"+tc.cfg, func(t *testing.T) {
			t.Parallel()
			m := buildMachine(t, tc.bench, tc.cfg, machine.Params{Causal: true})
			st, err := m.Run(testBudget)
			if err != nil {
				t.Fatal(err)
			}
			for tile := range st.Cores {
				var sum int64
				for _, n := range m.CausalTile(tile).Counts {
					sum += n
				}
				if want := st.Cores[tile].Cycles; sum != want {
					t.Errorf("tile %d: causal classes sum to %d, the core accounted %d cycles", tile, sum, want)
				}
			}
		})
	}
}

// TestCausalJourneysEnd holds the causal journey slab leak-free: every
// request and response flit's journey ends (delivered, absorbed by a bank,
// or dropped), so a completed run leaves none open — also across topology
// faults that harvest, re-inject and re-emit stamped flits.
func TestCausalJourneysEnd(t *testing.T) {
	for _, tc := range []struct{ bench, cfg, plan string }{
		{"gemm", "NV", ""}, {"mvt", "V4", ""}, {"atax", "V16", ""},
		{"mvt", "V4", "cutlink@500:27>28"}, {"mvt", "V4", "killbank@800:b3"},
		{"gemm", "NV", "seed=7;drop@100-:12>13:p0.2;cutlink@800:27>28"},
	} {
		t.Run(tc.bench+"/"+tc.cfg+"/"+tc.plan, func(t *testing.T) {
			mp := machine.Params{Causal: true}
			if tc.plan != "" {
				var err error
				if mp.Faults, err = fault.Parse(tc.plan); err != nil {
					t.Fatal(err)
				}
			}
			m := buildMachine(t, tc.bench, tc.cfg, mp)
			if _, err := m.Run(testBudget); err != nil {
				t.Fatal(err)
			}
			if n := m.OpenJourneys(); n != 0 {
				t.Errorf("%d causal journeys left open after the run", n)
			}
		})
	}
}
