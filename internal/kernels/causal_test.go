package kernels

import (
	"encoding/json"
	"math"
	"testing"

	"rockcress/internal/causal"
	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/golden"
)

// causalDirection is one validated what-if axis: a hardware baseline, the
// scale spec the projection applies, and the real hardware change the
// projection claims to predict.
type causalDirection struct {
	name     string
	baseMod  func(*config.Manycore) // baseline the causal run profiles
	scales   map[string]float64     // virtual change projected from the profile
	rerunMod func(*config.Manycore) // actual change the rerun measures
}

// causalDirections returns the three validated axes: NoC hop latency,
// DRAM access latency, and LLC bank count. Each baseline is chosen so the
// change is large enough to clear quantization noise and so the projection
// runs in its valid regime: the profile must *contain* the cycles being
// removed. Halving hop latency from 4, halving DRAM latency from the
// default, and doubling banks from 8 all remove cycles the baseline
// profile has measured; the reverse llc direction (removing banks from an
// uncongested baseline) would ask the profiler to invent queueing it never
// saw, which no profile-based what-if can do (see DESIGN.md).
func causalDirections() []causalDirection {
	return []causalDirection{
		{
			name:     "noc",
			baseMod:  func(m *config.Manycore) { m.RouterHopLat = 4 },
			scales:   map[string]float64{"noc": 0.5},
			rerunMod: func(m *config.Manycore) { m.RouterHopLat = 2 },
		},
		{
			name:     "dram",
			baseMod:  func(m *config.Manycore) {},
			scales:   map[string]float64{"dram": 0.5},
			rerunMod: func(m *config.Manycore) { m.DRAMLatency = 30 },
		},
		{
			name:     "llc",
			baseMod:  func(m *config.Manycore) { m.LLCBanks = 8 },
			scales:   map[string]float64{"llc": 0.5},
			rerunMod: func(m *config.Manycore) { m.LLCBanks = 16 },
		},
	}
}

type projectionMeasurement struct {
	base, proj, real int64
	ratio            float64 // real / proj: rerun cycles over projected cycles
}

// measureProjection runs the baseline with causal recording, projects the
// direction's scaled cycle count, reruns on the actually-changed hardware,
// and compares the two deltas.
func measureProjection(b Benchmark, sw config.Software, sc Scale, d causalDirection) (projectionMeasurement, error) {
	baseHW := config.ManycoreDefault()
	d.baseMod(&baseHW)
	baseRes, err := ExecuteOpts(b, b.Defaults(sc), sw, baseHW, ExecOpts{Causal: true})
	if err != nil {
		return projectionMeasurement{}, err
	}
	proj := baseRes.Causal.Project(d.scales)
	rerunHW := config.ManycoreDefault()
	d.baseMod(&rerunHW)
	d.rerunMod(&rerunHW)
	rerunRes, err := ExecuteOpts(b, b.Defaults(sc), sw, rerunHW, ExecOpts{})
	if err != nil {
		return projectionMeasurement{}, err
	}
	m := projectionMeasurement{base: baseRes.Cycles(), proj: proj, real: rerunRes.Cycles()}
	if m.proj != 0 {
		m.ratio = float64(m.real) / float64(m.proj)
	} else {
		m.ratio = math.Inf(1)
	}
	return m, nil
}

// whatIfRelTol is the validated agreement bound, stated in EXPERIMENTS.md:
// the projected speedup must agree with the measured rerun speedup within
// ±15% — equivalently, the projected cycle count must be within 15% of the
// cycle count the rerun actually measured.
const whatIfRelTol = 0.15

// TestWhatIfProjectionAgreesWithRerun validates the causal profiler's core
// promise on a pinned matrix: for each kernel x configuration below, the
// COZ-style virtual speedup projected from one -causal run agrees with a
// real rerun on the changed hardware, for all three resource axes (NoC hop
// latency, DRAM access latency, LLC bank count). The kernels were chosen
// from the full survey (TestCausalProjectionSurvey) as the regimes where a
// linear profile-based projection is valid — compute-bound (gemm),
// blocked-reduction (syrk), and stencil (2dconv); the survey documents why
// the streaming bandwidth-bound kernels (mvt, atax, bicg, gesummv) fall
// outside it on the llc axis (superlinear congestion relief at NV,
// latency-hidden queueing under deep vector frames — see the Caveats
// discussion in EXPERIMENTS.md). It also re-checks, per baseline run, that
// the critical-path buckets sum to the end-to-end cycle count exactly.
func TestWhatIfProjectionAgreesWithRerun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2 simulations per kernel/config/axis")
	}
	pinned := []struct {
		bench string
		cfgs  []string
	}{
		{"gemm", []string{"NV", "V4", "V16"}},
		{"syrk", []string{"NV", "V4", "V16"}},
		{"2dconv", []string{"NV", "V4", "V16"}},
	}
	for _, p := range pinned {
		b, err := Get(p.bench)
		if err != nil {
			t.Fatalf("%s: %v", p.bench, err)
		}
		for _, cn := range p.cfgs {
			sw, err := config.Preset(cn)
			if err != nil {
				t.Fatalf("%s: %v", cn, err)
			}
			for _, d := range causalDirections() {
				t.Run(p.bench+"/"+cn+"/"+d.name, func(t *testing.T) {
					m, err := measureProjection(b, sw, Small, d)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(m.ratio-1) > whatIfRelTol {
						t.Errorf("projection disagrees with rerun: base=%d projected=%d rerun=%d (rerun/projected = %.4f, outside 1±%.2f)",
							m.base, m.proj, m.real, m.ratio, whatIfRelTol)
					}
				})
			}
		}
	}
}

// TestCausalBucketsSumToCycles pins the exactness invariant on real runs:
// with causal recording on, the critical-path buckets of every profiled
// run sum to the end-to-end cycle count exactly — no cycle is attributed
// twice, none is dropped. It also pins bit-identity: the run's cycle count
// with recording on equals the count with it off. Each cell's per-class
// bucket vector is pinned too, so a change that moves cycles from one
// class to another fails here even though the sum still holds.
func TestCausalBucketsSumToCycles(t *testing.T) {
	for _, tc := range []struct {
		bench, cfg string
		buckets    [causal.NumClasses]int64 // in causal.Class order
	}{
		{"gemm", "NV", [causal.NumClasses]int64{987, 0, 0, 0, 288, 482, 1199, 205, 131, 132, 0, 0, 1, 0}},
		{"gemm", "V4", [causal.NumClasses]int64{0, 544, 0, 0, 215, 0, 100, 292, 128, 140, 0, 0, 2, 0}},
		{"gemm", "V16", [causal.NumClasses]int64{0, 544, 0, 7, 467, 0, 87, 300, 166, 109, 0, 0, 2, 0}},
		{"mvt", "V4", [causal.NumClasses]int64{0, 946, 0, 21, 476, 0, 368, 665, 539, 133, 0, 0, 4, 0}},
		{"atax", "V16", [causal.NumClasses]int64{0, 985, 0, 0, 1136, 0, 358, 660, 0, 0, 0, 0, 66, 0}},
		{"gesummv", "NV", [causal.NumClasses]int64{955, 0, 0, 0, 737, 96, 2443, 3355, 7, 340, 0, 0, 4, 0}},
	} {
		b, err := Get(tc.bench)
		if err != nil {
			t.Fatalf("%s: %v", tc.bench, err)
		}
		sw, err := config.Preset(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.cfg, err)
		}
		hw := config.ManycoreDefault()
		on, err := ExecuteOpts(b, b.Defaults(Tiny), sw, hw, ExecOpts{Causal: true})
		if err != nil {
			t.Fatalf("%s/%s causal: %v", tc.bench, tc.cfg, err)
		}
		off, err := ExecuteOpts(b, b.Defaults(Tiny), sw, hw, ExecOpts{})
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.bench, tc.cfg, err)
		}
		if on.Cycles() != off.Cycles() {
			t.Errorf("%s/%s: causal recording changed the cycle count: %d with, %d without",
				tc.bench, tc.cfg, on.Cycles(), off.Cycles())
		}
		if on.Causal == nil {
			t.Fatalf("%s/%s: causal run produced no report", tc.bench, tc.cfg)
		}
		var sum int64
		var got [causal.NumClasses]int64
		for i, bk := range on.Causal.Buckets {
			sum += bk.Cycles
			got[i] = bk.Cycles
		}
		if sum != on.Cycles() {
			t.Errorf("%s/%s: buckets sum to %d, run took %d cycles", tc.bench, tc.cfg, sum, on.Cycles())
		}
		if got != tc.buckets {
			t.Errorf("%s/%s: buckets = %v, want %v", tc.bench, tc.cfg, got, tc.buckets)
		}
	}
}

// TestCausalReportGolden pins the whole critical_path section (buckets,
// slack table, top chains) of five Tiny cells that between them exercise
// every journey stamp: gemm/NV's scalar load responses and its DRAM fills,
// mvt/V4's group vload fan-out, mvt/V4 on a one-word, one-deep network,
// where responses wait on the response plane (the gated stamp), and two
// fault plans whose flits carry stamps across a topology change: a cut
// link harvests and re-injects in-flight flits, and a dead bank re-emits
// the requests it had absorbed. Pinned in testdata/causal.golden.json.
func TestCausalReportGolden(t *testing.T) {
	type cell struct {
		Cell         string         `json:"cell"`
		CriticalPath *causal.Report `json:"critical_path"`
	}
	var got []cell
	for _, tc := range []struct {
		name, bench, cfg, plan string
		hw                     func(*config.Manycore)
	}{
		{name: "gemm/NV", bench: "gemm", cfg: "NV"},
		{name: "mvt/V4", bench: "mvt", cfg: "V4"},
		{name: "mvt/V4 net=1w q=1", bench: "mvt", cfg: "V4",
			hw: func(m *config.Manycore) { m.NetWidthWords, m.LinkQueue = 1, 1 }},
		{name: "mvt/V4 cutlink@500:27>28", bench: "mvt", cfg: "V4", plan: "cutlink@500:27>28"},
		{name: "mvt/V4 killbank@800:b3", bench: "mvt", cfg: "V4", plan: "killbank@800:b3"},
	} {
		b, err := Get(tc.bench)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sw, err := config.Preset(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		hw := config.ManycoreDefault()
		if tc.hw != nil {
			tc.hw(&hw)
		}
		var plan *fault.Plan
		if tc.plan != "" {
			if plan, err = fault.Parse(tc.plan); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
		fr, err := ExecuteWithFaultsOpts(b, b.Defaults(Tiny), sw, hw, plan, ExecOpts{Causal: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got = append(got, cell{tc.name, fr.Result.Causal})
	}
	out, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/causal.golden.json", append(out, '\n'))
}
