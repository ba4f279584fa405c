package harness

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rockcress/internal/analyze"
	"rockcress/internal/config"
	"rockcress/internal/kernels"
	"rockcress/internal/lifecycle"
	"rockcress/internal/metrics"
)

func mustReq(t *testing.T, bench, cfg string, mod *HWMod) runReq {
	t.Helper()
	b, err := kernels.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	q, err := req(b, cfg, mod)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// figureRequests lists every request Figures 10-17 make on benches: each
// Table 3 row and the GPU on the default machine, NV_PF on every core count
// and on twice the DRAM bandwidth, the three sensitivity rows on every LLC
// and network-width modifier, and Figure 15's hop kernels at V4 and V16.
func figureRequests(t *testing.T, benches ...string) []runReq {
	t.Helper()
	var reqs []runReq
	add := func(bench string, mod *HWMod, cfgs ...string) {
		for _, cfg := range cfgs {
			reqs = append(reqs, mustReq(t, bench, cfg, mod))
		}
	}
	rows := []string{"GPU"}
	for _, sw := range config.Presets() {
		rows = append(rows, sw.Name)
	}
	for _, b := range benches {
		add(b, nil, rows...)
		for _, side := range []int{1, 2, 4, 8} {
			mod := coreCount(side)
			add(b, &mod, "NV_PF")
		}
		add(b, &dramBW2x, "NV_PF")
		for _, mod := range []HWMod{llcPerBank(16), llcPerBank(32), netWidth(1), netWidth(4)} {
			add(b, &mod, "NV_PF", "V4", "V16_LL")
		}
	}
	for _, b := range fig15Benches {
		add(b, nil, "V4", "V16")
	}
	return reqs
}

// identity is what a request simulates, worked out without resolve.
type identity struct {
	bench, sw string
	hw        config.Manycore
}

func identityOf(q runReq) identity {
	name := q.bench.Info().Name
	hw := config.ManycoreDefault()
	if q.mod != nil {
		q.mod.Fn(&hw)
	}
	return identity{name, effectiveSW(name, q.sw).Name, hw}
}

// renderFigs runs figs on r in order and returns their output.
func renderFigs(t *testing.T, r *Runner, figs ...func(*Runner, io.Writer) error) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, f := range figs {
		if err := f(r, &out); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// paperSweep is Figures 10-17 in registry order.
func paperSweep() []func(*Runner, io.Writer) error {
	var figs []func(*Runner, io.Writer) error
	for _, f := range Figures {
		if strings.HasPrefix(f.Name, "1") {
			figs = append(figs, f.Fn)
		}
	}
	return figs
}

// TestThroughputCountsEveryCommittedCell: a cell that finishes after an
// earlier cell failed is committed, so the meter counts it too.
func TestThroughputCountsEveryCommittedCell(t *testing.T) {
	// mvt/V4 needs 3152 cycles and gemm/V4 1421: a 2000-cycle budget fails
	// the first request and commits the second.
	r := New(Options{Scale: kernels.Tiny, Out: io.Discard, MaxCycles: 2000, Jobs: 1})
	if _, err := r.fetch([]runReq{mustReq(t, "mvt", "V4", nil), mustReq(t, "gemm", "V4", nil)}); err == nil {
		t.Fatal("mvt/V4 fit a 2000-cycle budget")
	}
	var cached int64
	for _, res := range r.cache {
		cached += res.Cycles()
	}
	if got, _ := r.Throughput(); got != cached || cached != 1421 {
		t.Errorf("Throughput counts %d cycles, the cache holds %d (want gemm/V4's 1421)", got, cached)
	}
}

// TestEachSimulationRunsOnce: Figures 10-17 simulate each distinct (bench,
// effective config, effective machine) once, whichever modifier names it,
// and every request they made is a cache hit afterwards; the count and the
// bytes do not depend on Jobs.
func TestEachSimulationRunsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	benches := []string{"mvt", "gemm"}
	reqs := figureRequests(t, benches...)
	want := map[identity]bool{}
	for _, q := range reqs {
		want[identityOf(q)] = true
	}
	var first []byte
	for _, jobs := range []int{1, 4} {
		p := metrics.NewPlane("")
		r := New(Options{Scale: kernels.Tiny, Out: io.Discard, Benches: benches, Jobs: jobs, Obs: p})
		out := renderFigs(t, r, paperSweep()...)
		if ran := p.Run().Snapshot().Sweep.Done; ran != int64(len(want)) {
			t.Errorf("Jobs=%d: %d simulations for %d distinct (bench, config, machine)", jobs, ran, len(want))
		}
		cycles, _ := r.Throughput()
		for _, q := range reqs {
			if _, err := r.Run(q.bench, q.sw, q.mod); err != nil {
				t.Fatal(err)
			}
		}
		if after, _ := r.Throughput(); after != cycles {
			t.Errorf("Jobs=%d: a request the figures made missed the cache (%d more cycles)", jobs, after-cycles)
		}
		if first == nil {
			first = out
		} else if !bytes.Equal(out, first) {
			t.Errorf("Jobs=%d renders differently from Jobs=1", jobs)
		}
	}
}

// TestOneArtifactPerSimulation: Fig 17c's NW4 columns are Fig 10's default
// cells, so the two figures on mvt write eight reports and eight telemetry
// files — Fig 10's five rows and Fig 17c's three NW1 cells — under one stem
// each, and a modified cell's report names the machine, not the modifier.
func TestOneArtifactPerSimulation(t *testing.T) {
	dir := t.TempDir()
	reports, telem := filepath.Join(dir, "reports"), filepath.Join(dir, "telem")
	r := New(Options{Scale: kernels.Tiny, Out: io.Discard, Benches: []string{"mvt"},
		ReportDir: reports, TelemetryDir: telem})
	renderFigs(t, r, (*Runner).Fig10, (*Runner).Fig17c)
	stems := func(dir, ext string) []string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range ents {
			out = append(out, strings.TrimSuffix(e.Name(), ext))
		}
		return out
	}
	rs, ts := stems(reports, ".report.json"), stems(telem, ".jsonl")
	if len(rs) != 8 || len(r.cache) != 8 || strings.Join(rs, " ") != strings.Join(ts, " ") {
		t.Fatalf("%d cells cached, reports %v, telemetry %v: want 8 of each under the same stems",
			len(r.cache), rs, ts)
	}
	rep, err := analyze.ReadReport(filepath.Join(reports, "mvt_NV_PF_NetWidthWords_1_0.report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mod != "NetWidthWords=1" || rep.HW.NetWidthWords != 1 {
		t.Errorf("NW1 report names mod %q on a %d-word network", rep.Mod, rep.HW.NetWidthWords)
	}
}

// TestStemsAreUnique: no two cache keys any figure requests share a file
// stem, so no machine's report or telemetry overwrites another's.
func TestStemsAreUnique(t *testing.T) {
	r := New(Options{Scale: kernels.Tiny})
	benches := []string{"bfs"}
	for _, b := range kernels.PolyBench() {
		benches = append(benches, b.Info().Name)
	}
	keyOf := map[string]string{}
	for _, q := range figureRequests(t, benches...) {
		key := r.resolve(q).key
		stem := sanitizeKey(key)
		if prev, ok := keyOf[stem]; ok && prev != key {
			t.Errorf("keys %q and %q share the stem %q", prev, key, stem)
		}
		keyOf[stem] = key
	}
	if r.resolve(mustReq(t, "gemm", "V4", nil)).key != "gemm|V4||0" {
		t.Error("the default machine no longer keys as the empty string")
	}
}

// TestResumeAcrossAliases: a sweep interrupted after either figure and
// resumed from its journal simulates only the identities the journal lacks
// — Fig 17c's NW4 cells are Fig 10's journaled default cells, and the other
// way round — and prints what an uninterrupted sweep prints.
func TestResumeAcrossAliases(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := Options{Scale: kernels.Tiny, Out: io.Discard, Benches: []string{"mvt"}}
	figs := []func(*Runner, io.Writer) error{(*Runner).Fig10, (*Runner).Fig17c}
	ref := renderFigs(t, New(opts), figs...)
	const cells = 8 // Fig 10's five rows on mvt and Fig 17c's three NW1 cells
	meta := map[string]string{"scale": "tiny"}
	for _, first := range figs {
		path := filepath.Join(t.TempDir(), "sweep.journal")
		j, err := lifecycle.CreateJournal(path, meta)
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Journal = j
		renderFigs(t, New(o), first) // the sweep, interrupted after one figure
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		j, entries, err := lifecycle.ResumeJournal(path, meta)
		if err != nil {
			t.Fatal(err)
		}
		p := metrics.NewPlane("")
		o.Journal, o.Obs = j, p
		r := New(o)
		seeded, err := r.SeedJournal(entries)
		if err != nil {
			t.Fatal(err)
		}
		got := renderFigs(t, r, figs...)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("resumed sweep differs from an uninterrupted one:\n%s\nvs\n%s", got, ref)
		}
		if ran := p.Run().Snapshot().Sweep.Done; ran != int64(cells-seeded) {
			t.Errorf("resume seeded %d cells and simulated %d, want %d", seeded, ran, cells-seeded)
		}
		_, all, err := lifecycle.LoadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != cells {
			t.Errorf("journal holds %d entries, want one per simulation (%d)", len(all), cells)
		}
	}
}
