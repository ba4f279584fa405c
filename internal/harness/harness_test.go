package harness

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/golden"
	"rockcress/internal/kernels"
	"rockcress/internal/metrics"
)

func TestTablesRender(t *testing.T) {
	var b bytes.Buffer
	Table1a(&b)
	Table1b(&b)
	Table2(&b, kernels.Small)
	Table3(&b)
	out := b.String()
	for _, want := range []string{
		"Cores", "64", "Compute Units", "Wavefront Size",
		"gramschm", "bfs", "BEST_V_PCV", "Frame Counters",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tables missing %q", want)
		}
	}
}

func TestRunnerCaches(t *testing.T) {
	r := New(Options{Scale: kernels.Tiny, Out: io.Discard, Benches: []string{"gemm"}})
	b, err := kernels.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	r1, err := r.RunNamed(b, "NV", nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := r.RunNamed(b, "NV", nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("second run not served from cache")
	}
	// A hardware mod must not hit the unmodified cache entry.
	mod := HWMod{Name: "nw1", Fn: func(c *config.Manycore) { c.NetWidthWords = 1 }}
	r3, err := r.RunNamed(b, "NV", &mod)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Fatal("modified run served from unmodified cache")
	}
	// A modifier that restates the default machine is the default cell,
	// whatever its name; one that builds a cached machine is that cell.
	nw4, nw1 := netWidth(4), netWidth(1)
	if r4, err := r.RunNamed(b, "NV", &nw4); err != nil || r4 != r1 {
		t.Fatalf("NW4 (the default width) did not read the default cell: %v", err)
	}
	if r5, err := r.RunNamed(b, "NV", &nw1); err != nil || r5 != r3 {
		t.Fatalf("NW1 did not read the cell an identical machine cached: %v", err)
	}
}

func TestEffectiveSWSubstitution(t *testing.T) {
	// gramschm cannot use SIMD (§6.2): SIMD rows map to their closest
	// valid configuration.
	pcv, _ := config.Preset("PCV_PF")
	if got := effectiveSW("gramschm", pcv); got.Name != "NV_PF" || got.SIMD {
		t.Fatalf("PCV_PF -> %+v", got)
	}
	v4p, _ := config.Preset("V4_PCV")
	if got := effectiveSW("gramschm", v4p); got.Name != "V4" || got.SIMD {
		t.Fatalf("V4_PCV -> %+v", got)
	}
	llp, _ := config.Preset("V16_LL_PCV")
	if got := effectiveSW("gramschm", llp); got.Name != "V16_LL" {
		t.Fatalf("V16_LL_PCV -> %+v", got)
	}
	// Benchmarks with SIMD support are untouched.
	if got := effectiveSW("gemm", pcv); got.Name != "PCV_PF" || !got.SIMD {
		t.Fatalf("gemm PCV_PF -> %+v", got)
	}
}

// TestBestPicksFaster: a column naming several configurations folds, per
// benchmark, to the fastest of them, and hands back that run's own result.
func TestBestPicksFaster(t *testing.T) {
	r := New(Options{Scale: kernels.Tiny, Out: io.Discard})
	b, err := kernels.Get("mvt")
	if err != nil {
		t.Fatal(err)
	}
	g, err := r.grid([]kernels.Benchmark{b},
		append(plain("V4", "V16"), col{name: "best", cfgs: []string{"V16", "V4"}}))
	if err != nil {
		t.Fatal(err)
	}
	v4, v16, best := g[0][0], g[0][1], g[0][2]
	if v4.Cycles() == v16.Cycles() {
		t.Fatalf("V4 and V16 tie at %d cycles: the test cannot tell which was picked", v4.Cycles())
	}
	want := v4
	if v16.Cycles() < v4.Cycles() {
		want = v16
	}
	if best != want {
		t.Fatalf("best-of column picked %s at %d cycles, want %s at %d",
			best.Config, best.Cycles(), want.Config, want.Cycles())
	}
}

// TestFetch pins the one execution path: results in request order,
// duplicates run once, cached cells run nothing, a bad preset fails before
// anything runs, and a failing cell does not forfeit the finished ones.
func TestFetch(t *testing.T) {
	reqs := []runReq{mustReq(t, "mvt", "V4", nil), mustReq(t, "gemm", "V4", nil),
		mustReq(t, "mvt", "NV", nil), mustReq(t, "mvt", "V4", nil)}

	r := New(Options{Scale: kernels.Tiny, Out: io.Discard, Jobs: 2})
	res, err := r.fetch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct {
		bench, cfg string
		cycles     int64
	}{{"mvt", "V4", 3152}, {"gemm", "V4", 1421}, {"mvt", "NV", 7918}, {"mvt", "V4", 3152}} {
		if res[i].Bench != want.bench || res[i].Config != want.cfg || res[i].Cycles() != want.cycles {
			t.Errorf("result %d is %s/%s at %d cycles, want %s/%s at %d",
				i, res[i].Bench, res[i].Config, res[i].Cycles(), want.bench, want.cfg, want.cycles)
		}
	}
	if res[0] != res[3] {
		t.Error("duplicate requests returned different results")
	}
	ran, _ := r.Throughput()
	if ran != 3152+1421+7918 {
		t.Errorf("simulated %d cycles, want %d: a duplicate request must run once", ran, 3152+1421+7918)
	}
	again, err := r.fetch(reqs[:2])
	if err != nil {
		t.Fatal(err)
	}
	if after, _ := r.Throughput(); after != ran || again[0] != res[0] || again[1] != res[1] {
		t.Errorf("fetch of cached cells ran %d more cycles or returned new results", after-ran)
	}

	if _, err := req(reqs[0].bench, "NOSUCH", nil); err == nil {
		t.Error("req accepted an unknown preset")
	}
	if _, err := r.grid([]kernels.Benchmark{reqs[0].bench}, plain("V16", "NOSUCH")); err == nil {
		t.Error("grid accepted an unknown preset")
	} else if after, _ := r.Throughput(); after != ran {
		t.Errorf("grid with an unknown preset still ran %d cycles", after-ran)
	}

	// mvt/V4 needs 3152 cycles and gemm/V4 1421: a 2000-cycle budget fails
	// the first request, and the second must be kept all the same.
	short := New(Options{Scale: kernels.Tiny, Out: io.Discard, Jobs: 2,
		MaxCycles: 2000})
	if _, err := short.fetch(reqs[:2]); err == nil || !strings.Contains(err.Error(), "mvt") {
		t.Fatalf("fetch error %v, want mvt's cycle-budget failure", err)
	}
	kept, _ := short.Throughput()
	got, err := short.fetch(reqs[1:2])
	if err != nil || got[0].Cycles() != 1421 {
		t.Fatalf("gemm/V4 after the failed fetch: %v, %v", got, err)
	}
	if after, _ := short.Throughput(); after != kept {
		t.Errorf("gemm/V4 was forfeited by mvt's failure: it ran again (%d more cycles)", after-kept)
	}
}

// renderFigures regenerates every registry entry at Tiny: the paper's
// figures on one shared runner (so later figures read earlier figures'
// cells), each extension on a runner of its own.
func renderFigures(t *testing.T, jobs int) []byte {
	t.Helper()
	runner := func(benches ...string) *Runner {
		return New(Options{Scale: kernels.Tiny, Out: io.Discard, Benches: benches, Jobs: jobs})
	}
	// gramschm exercises the effectiveSW substitution; 2dconv, bicg and
	// gemm are Figure 15 hop kernels.
	paper := runner("2dconv", "bicg", "gemm", "gramschm", "mvt")
	var out bytes.Buffer
	for _, f := range Figures {
		r := paper
		if !f.Paper {
			r = runner("gemm", "mvt") // FigFault is mvt's curve whatever the subset
		}
		fmt.Fprintf(&out, "=== rockbench -fig %s ===\n", f.Name)
		if err := f.Fn(r, &out); err != nil {
			t.Fatalf("figure %s: %v", f.Name, err)
		}
	}
	return out.Bytes()
}

// TestFigureGoldens holds every figure's bytes, for two sweep widths,
// against testdata/figures_tiny.golden.txt.
func TestFigureGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	got := renderFigures(t, 1)
	golden.Check(t, "testdata/figures_tiny.golden.txt", got)
	if wide := renderFigures(t, 4); !bytes.Equal(wide, got) {
		t.Errorf("Jobs=4 renders differently from Jobs=1:\n%s", wide)
	}
}

// TestFigReplayRunsOnlyItsProbes: the probe runs its own fault-free base,
// so the figure starts no sweep cell of its own.
func TestFigReplayRunsOnlyItsProbes(t *testing.T) {
	r := New(Options{Scale: kernels.Tiny, Out: io.Discard, Benches: []string{"mvt"}})
	if err := r.FigReplay(io.Discard); err != nil {
		t.Fatal(err)
	}
	if cycles, _ := r.Throughput(); cycles != 0 {
		t.Errorf("FigReplay simulated %d cycles of sweep cells it never reads", cycles)
	}
}

// TestFigNetFaultTinySubset drives the permanent-topology sweep on two
// kernels: every cell must complete (each is output-checked on the
// degraded fabric inside the executor), the fault-free column must be
// exactly 1.00, and two sweeps must render byte-identically (the
// determinism the figure's golden use depends on), the second with a plane
// attached. On the plane the sweep plans and finishes 18 cells: 6 base runs
// plus 12 faulted ladder cells (2 kernels x 3 configurations x 2 cut
// counts); the cuts=0 column is the base run and simulates nothing more.
func TestFigNetFaultTinySubset(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	run := func(obs *metrics.Plane) string {
		r := New(Options{Scale: kernels.Tiny, Out: io.Discard, Benches: []string{"gemm", "mvt"}, Obs: obs})
		var b bytes.Buffer
		if err := r.FigNetFault(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := run(nil)
	if !strings.Contains(out, "Figure N (NV)") || !strings.Contains(out, "Figure N (V16)") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 4 && (f[0] == "gemm" || f[0] == "mvt") && f[1] != "1.00" {
			t.Errorf("fault-free column not 1.00: %q", line)
		}
	}
	p := metrics.NewPlane("")
	if again := run(p); again != out {
		t.Fatalf("netfault sweep not deterministic:\n%s\n---\n%s", out, again)
	}
	if snap := p.Run().Snapshot(); snap.Planned != 18 || snap.Done != 18 {
		t.Errorf("planned %d, done %d, want 18 and 18 (6 base runs + 12 ladder cells)", snap.Planned, snap.Done)
	}
}

// stripTimings drops the wall-clock suffix from progress lines — the only
// part of the output allowed to vary between runs.
func stripTimings(out string) string {
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "#") {
			if j := strings.LastIndex(l, "("); j >= 0 {
				lines[i] = strings.TrimRight(l[:j], " ")
			}
		}
	}
	return strings.Join(lines, "\n")
}

// TestParallelSweepDeterministic checks the figure-sweep worker pool: for
// any Jobs value the full output — progress lines, order, and every table
// cell — must match the serial sweep. Under `go test -race` this is also
// the detector's concurrent-simulation workload for the harness.
func TestParallelSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	run := func(jobs int) string {
		var b bytes.Buffer
		r := New(Options{Scale: kernels.Tiny, Out: &b, Verbose: true,
			Benches: []string{"gemm", "mvt", "gesummv"}, Jobs: jobs})
		if err := r.Fig16(&b); err != nil {
			t.Fatal(err)
		}
		return stripTimings(b.String())
	}
	serial := run(1)
	for _, jobs := range []int{2, 8} {
		if got := run(jobs); got != serial {
			t.Errorf("jobs=%d output differs from serial:\n--- serial ---\n%s\n--- jobs=%d ---\n%s",
				jobs, serial, jobs, got)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Fatalf("geomean %g, want 4", g)
	}
	if geomean(nil) != 0 {
		t.Fatal("empty geomean")
	}
	if m := mean([]float64{1, 3}); m != 2 {
		t.Fatalf("mean %g", m)
	}
}
