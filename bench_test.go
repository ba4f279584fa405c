// Benchmarks that regenerate the paper's tables and figures (one bench per
// table/figure group, at tiny scale so `go test -bench=.` stays tractable;
// cmd/rockbench runs the real sizes), plus the ablation studies DESIGN.md
// calls out and microbenchmarks of the simulator itself.
package rockcress_test

import (
	"fmt"
	"io"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/harness"
	"rockcress/internal/kernels"
)

// figBenches keeps the per-iteration cost of figure benchmarks bounded: a
// representative slice of the suite covering dense, column-access,
// stencil, and irregular-ish behaviour.
var figBenches = []string{"gemm", "mvt", "2dconv", "gesummv"}

func newRunner(benches []string) *harness.Runner {
	return harness.New(harness.Options{
		Scale: kernels.Tiny, Out: io.Discard, Benches: benches,
	})
}

func runFig(b *testing.B, fn func(*harness.Runner, io.Writer) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := newRunner(figBenches) // fresh runner: no cross-iteration cache
		if err := fn(r, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10 regenerates the headline speedup/I-cache/energy figure.
func BenchmarkFig10(b *testing.B) {
	runFig(b, func(r *harness.Runner, w io.Writer) error { return r.Fig10(w) })
}

// BenchmarkFig11 regenerates the core-count scalability figure.
func BenchmarkFig11(b *testing.B) {
	runFig(b, func(r *harness.Runner, w io.Writer) error { return r.Fig11(w) })
}

// BenchmarkFig12 regenerates the CPI stacks across manycore sizes.
func BenchmarkFig12(b *testing.B) {
	runFig(b, func(r *harness.Runner, w io.Writer) error { return r.Fig12(w) })
}

// BenchmarkFig13 regenerates the DRAM-bandwidth CPI study.
func BenchmarkFig13(b *testing.B) {
	runFig(b, func(r *harness.Runner, w io.Writer) error { return r.Fig13(w) })
}

// BenchmarkFig14 regenerates the SIMD + GPU comparison.
func BenchmarkFig14(b *testing.B) {
	runFig(b, func(r *harness.Runner, w io.Writer) error { return r.Fig14(w) })
}

// BenchmarkFig15 regenerates the inet stall characterization.
func BenchmarkFig15(b *testing.B) {
	runFig(b, func(r *harness.Runner, w io.Writer) error { return r.Fig15(w) })
}

// BenchmarkFig16 regenerates the vector-length / long-line study.
func BenchmarkFig16(b *testing.B) {
	runFig(b, func(r *harness.Runner, w io.Writer) error { return r.Fig16(w) })
}

// BenchmarkFig17 regenerates the memory-system sensitivity studies.
func BenchmarkFig17(b *testing.B) {
	runFig(b, func(r *harness.Runner, w io.Writer) error {
		if err := r.Fig17a(w); err != nil {
			return err
		}
		if err := r.Fig17b(w); err != nil {
			return err
		}
		return r.Fig17c(w)
	})
}

// BenchmarkBFS regenerates the §6.6 irregular-workload comparison.
func BenchmarkBFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := newRunner(nil)
		if err := r.BFS(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTables prints Tables 1a/1b/2/3 (static parameter tables).
func BenchmarkTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		harness.Table1a(io.Discard)
		harness.Table1b(io.Discard)
		harness.Table2(io.Discard, kernels.Tiny)
		harness.Table3(io.Discard)
	}
}

// --- ablations (DESIGN.md: design choices under test) ---

func runAblation(b *testing.B, benchName, cfgName string, mod func(*config.Manycore)) int64 {
	b.Helper()
	bench, err := kernels.Get(benchName)
	if err != nil {
		b.Fatal(err)
	}
	sw, err := config.Preset(cfgName)
	if err != nil {
		b.Fatal(err)
	}
	hw := config.ManycoreDefault()
	if mod != nil {
		mod(&hw)
	}
	res, err := kernels.ExecuteOpts(bench, bench.Defaults(kernels.Tiny), sw, hw, kernels.ExecOpts{})
	if err != nil {
		b.Fatal(err)
	}
	return res.Cycles()
}

// BenchmarkAblationFrames sweeps the DAE depth (hardware frame counters):
// fewer counters curtail the scalar core's runahead (paper §3.3: "more
// counters let the DAE scheme run farther ahead"). Two counters are below
// what the §4.2 bound needs for these microthreads (the ahead offset goes
// negative), so the sweep starts at three.
func BenchmarkAblationFrames(b *testing.B) {
	for _, counters := range []int{3, 4, 5, 8} {
		counters := counters
		b.Run(fmt.Sprintf("counters=%d", counters), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = runAblation(b, "mvt", "V4", func(c *config.Manycore) {
					c.FrameCounters = counters
				})
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationInetQueue sweeps the inet queue depth, the term that
// dominates the implicit synchronization bound of §4.2.
func BenchmarkAblationInetQueue(b *testing.B) {
	for _, q := range []int{1, 2, 4} {
		q := q
		b.Run(fmt.Sprintf("qinet=%d", q), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = runAblation(b, "2dconv", "V4", func(c *config.Manycore) {
					c.InetQueueEntries = q
				})
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationLoadQueue sweeps the load-queue entries, the MIMD
// baseline's only source of memory-level parallelism.
func BenchmarkAblationLoadQueue(b *testing.B) {
	for _, lq := range []int{1, 2, 4, 8} {
		lq := lq
		b.Run(fmt.Sprintf("lq=%d", lq), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = runAblation(b, "gemm", "NV", func(c *config.Manycore) {
					c.LoadQueueEntries = lq
				})
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationNetWidth sweeps the on-chip network width (Fig 17c's
// knob) on a single benchmark.
func BenchmarkAblationNetWidth(b *testing.B) {
	for _, nw := range []int{1, 2, 4} {
		nw := nw
		b.Run(fmt.Sprintf("nw=%d", nw), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = runAblation(b, "syrk", "V4", func(c *config.Manycore) {
					c.NetWidthWords = nw
				})
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// --- simulator microbenchmarks ---

// BenchmarkSimThroughput measures host time per simulated cycle on a busy
// 64-core machine (the figure-regeneration budget driver).
func BenchmarkSimThroughput(b *testing.B) {
	bench, err := kernels.Get("mvt")
	if err != nil {
		b.Fatal(err)
	}
	sw, _ := config.Preset("NV")
	var simCycles int64
	for i := 0; i < b.N; i++ {
		res, err := kernels.ExecuteOpts(bench, bench.Defaults(kernels.Small), sw, config.ManycoreDefault(), kernels.ExecOpts{})
		if err != nil {
			b.Fatal(err)
		}
		simCycles += res.Cycles()
	}
	b.ReportMetric(float64(simCycles)/float64(b.Elapsed().Seconds())/1e6, "Msim-cycles/s")
}

// BenchmarkEngineMIPS measures raw engine throughput: simulated cycles per
// host second of the run loop alone (stats.WallNs), excluding kernel build
// and machine construction — the number the engine-overhaul work moves.
// Run with -benchmem: steady-state allocs/op is part of the contract.
func BenchmarkEngineMIPS(b *testing.B) {
	bench, err := kernels.Get("mvt")
	if err != nil {
		b.Fatal(err)
	}
	sw, _ := config.Preset("NV")
	b.ReportAllocs()
	var simCycles, wallNs int64
	for i := 0; i < b.N; i++ {
		res, err := kernels.ExecuteOpts(bench, bench.Defaults(kernels.Small), sw, config.ManycoreDefault(), kernels.ExecOpts{})
		if err != nil {
			b.Fatal(err)
		}
		simCycles += res.Stats.Cycles
		wallNs += res.Stats.WallNs
	}
	if wallNs > 0 {
		b.ReportMetric(float64(simCycles)*1e3/float64(wallNs), "Msim-cycles/s")
	}
}
