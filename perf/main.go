// Command perf is the repository's benchmark: five workloads over the
// simulator's public entry points, six bounded end-to-end metrics per
// workload measured with tracing off, and one traced pass that splits the
// same work into per-layer host time and modelled-component counts. Every
// layer is measured from outside, by timing calls into its public
// functions. See README.md for the glossary and the method.
//
//	go run ./perf                       all workloads, 9 interleaved passes, then the traced pass
//	go run ./perf -workload W -seed N -seconds S -trace 0|1
//	                                    one workload, as the driver in BENCHMARK.json runs it
//	go run ./perf -compare A/results.json B/results.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const (
	// fullPasses is the number of timed passes per workload of a full run.
	fullPasses = 9
	// minPasses is the floor under -seconds: medians of fewer passes did not
	// repeat on the hosts this was sized on.
	minPasses = 7
	// refPasses is the number of untraced passes before a -trace 1 run's
	// traced pass: the reference for the mirror check and the overhead.
	refPasses = 3
	// faultPlanSeed picks the victims of fault_tiny's plans. It is the
	// harness figures' seed, not -seed: which tiles, links and banks die
	// moves the ladder's cycles by 2 % and its allocations by 4 %, and
	// sim_cycles is held to an exact bound.
	faultPlanSeed = 0x5eed
	// cellStride separates the span cell ids of consecutive workloads.
	cellStride = 10000
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perf: "+format+"\n", args...)
	os.Exit(2)
}

// value is one reported number, as results.json and the result line carry it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// wlResult is one workload's entry in results.json / layers.json.
type wlResult struct {
	Passes         int              `json:"passes"`
	PassSpreadFrac float64          `json:"pass_spread_frac"`
	RawWallS       float64          `json:"raw_wall_s"`   // median pass seconds as measured
	HostSpeedX     float64          `json:"host_speed_x"` // median calibration factor, 1 = reference
	Attempted      int              `json:"attempted"`
	Failed         int              `json:"failed"`
	FailFrac       float64          `json:"fail_frac"`
	Metrics        map[string]value `json:"metrics"`
}

type resultFile struct {
	Seed       int64               `json:"seed"`
	GoMaxProcs int                 `json:"gomaxprocs"`
	Workloads  map[string]wlResult `json:"workloads"`
}

// wlRun is the measurement state of one selected workload.
type wlRun struct {
	workloadDef
	index     int
	setupS    float64   // cell list + warm-up pass, seconds at reference host speed
	walls     []float64 // seconds per timed pass, at reference host speed
	rawWalls  []float64 // the same passes as measured
	speeds    []float64 // host speed during each timed pass (1 = reference)
	mallocs   []float64
	allocMB   []float64
	last      passOut // the latest untraced pass
	attempted int
	failed    int
	layers    layers
}

func (r *wlRun) count(o passOut) {
	r.attempted += o.attempted
	r.failed += o.failed
}

func main() {
	var (
		workload = flag.String("workload", "", "run only this workload (default: all five, interleaved)")
		seed     = flag.Int64("seed", 1, "input seed: kernels.Params.Seed of every directly executed cell")
		seconds  = flag.Float64("seconds", 0, "timed seconds per workload (at least 7 passes); 0 runs 9 passes")
		traceSel = flag.Int("trace", -1, "0: untraced passes and end-to-end metrics only; 1: traced pass and per-layer metrics only; -1: both")
		outDir   = flag.String("out", filepath.Join(".bench_build", "perf-out"), "directory for results.json, layers.json, trace.json and scratch files")
		smoke    = flag.Bool("smoke", false, "one pass over the first two cells of each workload at Tiny scale (the tier-1 self-test)")
		compare  = flag.Bool("compare", false, "compare two results.json files (arguments A B) against the bounds in -bounds")
		bounds   = flag.String("bounds", "BENCHMARK.json", "benchmark contract read by -compare")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare takes two results.json paths")
		}
		os.Exit(compareFiles(*bounds, flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *traceSel < -1 || *traceSel > 1 {
		fatalf("-trace must be 0, 1 or -1")
	}
	os.Exit(run(runConfig{workload: *workload, seed: *seed, seconds: *seconds,
		trace: *traceSel, out: *outDir, smoke: *smoke}, os.Stdout))
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	smoke    bool
}

// run measures and reports; the return value is the process exit code.
func run(cfg runConfig, stdout io.Writer) int {
	// One process, serial engine, one sweep job: never more runnable
	// threads than the host has CPUs (the probes use at most two).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(2, runtime.NumCPU())))

	var runs []*wlRun
	for i, def := range workloads() {
		if cfg.workload == "" || cfg.workload == def.name {
			runs = append(runs, &wlRun{workloadDef: def, index: i, layers: layers{}})
		}
	}
	if len(runs) == 0 {
		fatalf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fatalf("%v", err)
	}
	scratch, err := os.MkdirTemp(cfg.out, "tmp-")
	if err != nil {
		fatalf("%v", err)
	}
	defer os.RemoveAll(scratch)
	for _, r := range runs {
		if w, ok := r.w.(*sweep); ok {
			w.tmp = scratch
		}
	}

	nPasses := fullPasses
	switch {
	case cfg.smoke:
		nPasses, cfg.seconds = 1, 0
	case cfg.trace == 1:
		// The traced pass is the measurement.
		nPasses, cfg.seconds = refPasses, 0
	}

	// Set-up: build the cell list, then one untimed warm-up pass that fills
	// the mem.Global pool, the flit and buffer pools, and the heap.
	// One calibration sits between every two timed intervals and serves as
	// the end bracket of the first and the start bracket of the second.
	hostSpeed := func() float64 { return 1 } // smoke numbers are not measurements
	if !cfg.smoke {
		cal := newCalibrator()
		bracket := cal.run()
		hostSpeed = func() float64 {
			before := bracket
			bracket = cal.run()
			return speed(before, bracket)
		}
	}
	for _, r := range runs {
		t0 := time.Now()
		if err := r.w.build(cfg.seed, cfg.smoke); err != nil {
			fatalf("%s: set-up: %v", r.name, err)
		}
		r.count(r.w.pass())
		raw := time.Since(t0).Seconds()
		r.setupS = raw * hostSpeed()
	}

	// Timed passes, round-robin across workloads: this class of host has
	// time-correlated noise, and interleaving spreads a slow minute over
	// every workload instead of sinking one.
	for {
		ran := false
		for _, r := range runs {
			var spent float64 // the -seconds budget is real time, not scaled time
			for _, w := range r.rawWalls {
				spent += w
			}
			done := len(r.walls) >= nPasses
			if cfg.seconds > 0 {
				done = len(r.walls) >= minPasses && spent >= cfg.seconds
			}
			if done {
				continue
			}
			ran = true
			m := measure(func() { r.last = r.w.pass() })
			sp := hostSpeed()
			r.count(r.last)
			r.walls = append(r.walls, m.wall.Seconds()*sp)
			r.rawWalls = append(r.rawWalls, m.wall.Seconds())
			r.speeds = append(r.speeds, sp)
			r.mallocs = append(r.mallocs, float64(m.mallocs))
			r.allocMB = append(r.allocMB, float64(m.size)/1e6)
		}
		if !ran {
			break
		}
	}

	tr := newTracer()
	if cfg.trace != 0 {
		for _, r := range runs {
			runtime.GC()
			o := r.w.traced(tr, r.index*cellStride, r.last, r.layers)
			r.count(o)
			r.layers["bench.passes"] = float64(len(r.walls))
			r.layers["bench.pass_spread_frac"] = spreadFrac(r.walls)
			r.layers["bench.trace_overhead_frac"] = o.wall.Seconds()/median(r.rawWalls) - 1
			r.layers["bench.raw_wall_s"] = median(r.rawWalls)
			r.layers["bench.host_speed_x"] = median(r.speeds)
			r.layers["bench.peak_rss_mb"] = peakRSSMB()
		}
	}

	return report(cfg, runs, tr, stdout)
}

// endToEndOf derives the bounded metrics from the timed passes.
func endToEndOf(r *wlRun) map[string]float64 {
	wall := median(r.walls)
	return map[string]float64{
		"wall_s":     wall,
		"sim_mcps":   float64(r.last.cycles) / wall / 1e6,
		"allocs":     median(r.mallocs),
		"alloc_mb":   median(r.allocMB),
		"sim_cycles": float64(r.last.cycles),
		"setup_s":    r.setupS,
	}
}

func report(cfg runConfig, runs []*wlRun, tr *tracer, stdout io.Writer) int {
	results := resultFile{Seed: cfg.seed, GoMaxProcs: runtime.GOMAXPROCS(0), Workloads: map[string]wlResult{}}
	layerFile := resultFile{Seed: cfg.seed, GoMaxProcs: results.GoMaxProcs, Workloads: map[string]wlResult{}}
	line := map[string]value{} // the single-workload result line's metrics
	failed := 0
	for _, r := range runs {
		failed += r.failed
		entry := wlResult{Passes: len(r.walls), PassSpreadFrac: spreadFrac(r.walls),
			RawWallS: median(r.rawWalls), HostSpeedX: median(r.speeds),
			Attempted: r.attempted, Failed: r.failed, FailFrac: float64(r.failed) / float64(r.attempted)}
		if cfg.trace != 1 {
			e := entry
			e.Metrics = map[string]value{}
			vals := endToEndOf(r)
			for _, d := range endToEnd {
				e.Metrics[d.name] = value{vals[d.name], d.unit}
				n := len(r.walls)
				if d.name == "setup_s" {
					n = 1
				}
				fmt.Fprintf(stdout, "%s %s %s %s n=%d\n", r.name, d.name, fmtFloat(vals[d.name]), d.unit, n)
			}
			fmt.Fprintf(stdout, "%s fail_frac %s frac cells=%d\n", r.name, fmtFloat(e.FailFrac), r.attempted)
			results.Workloads[r.name] = e
			for k, v := range e.Metrics {
				line[k] = v
			}
		}
		if cfg.trace != 0 {
			e := entry
			e.Metrics = map[string]value{}
			for _, d := range perLayer {
				e.Metrics[d.name] = value{r.layers[d.name], d.unit}
				fmt.Fprintf(stdout, "%s %s %s %s\n", r.name, d.name, fmtFloat(r.layers[d.name]), d.unit)
			}
			layerFile.Workloads[r.name] = e
			for k, v := range e.Metrics {
				line[k] = v
			}
		}
	}

	if cfg.trace != 1 {
		writeJSON(filepath.Join(cfg.out, "results.json"), results)
	}
	if cfg.trace != 0 {
		writeJSON(filepath.Join(cfg.out, "layers.json"), layerFile)
		f, err := os.Create(filepath.Join(cfg.out, "trace.json"))
		if err != nil {
			fatalf("%v", err)
		}
		names := workloads()
		err = tr.writeChrome(f, func(cell int) (int, string) { return cell / cellStride, names[cell/cellStride].name })
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatalf("trace.json: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "perf: wrote %s\n", cfg.out)

	if len(runs) == 1 {
		// The driver's contract: one JSON object as the last line of stdout.
		r := runs[0]
		out, err := json.Marshal(map[string]any{"correct": r.failed == 0, "attempted": r.attempted,
			"failed": r.failed, "metrics": line})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(stdout, "%s\n", out)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "perf: %d cells failed their check\n", failed)
		return 1
	}
	return 0
}

// fmtFloat prints every digit measured, without an exponent.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fatalf("%s: %v", path, err)
	}
}

// peakRSSMB reads the process's high-water resident set from procfs; 0
// where there is none.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}
