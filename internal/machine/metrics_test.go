package machine_test

// Observability-plane contract tests: (1) conservation — a /metrics scrape
// after a run must equal the end-of-run stats.Machine aggregates exactly,
// because both read the same live counters; (2) the plane is architecturally
// invisible — cycle counts with a listener attached and scraped mid-run are
// bit-identical; (3) a fault run through the
// recovery ladder conserves too; (4) a watchdog-tripped attempt dumps a
// flight bundle the ladder then recovers from.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/kernels"
	"rockcress/internal/metrics"
	"rockcress/internal/stats"
	"rockcress/internal/trace"
)

// scrape fetches one HTTP page from the introspection server.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape %s: HTTP %s: %s", url, resp.Status, body)
	}
	return string(body)
}

// promSeries parses a Prometheus text page into series -> value and
// family -> summed value (integer-valued series only; histogram _sum lines
// are skipped).
func promSeries(t *testing.T, text string) (series map[string]int64, fams map[string]int64) {
	t.Helper()
	series = map[string]int64{}
	fams = map[string]int64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		key := line[:sp]
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			continue // histogram _sum (float) — not under test here
		}
		series[key] = v
		fam := key
		if i := strings.IndexByte(fam, '{'); i >= 0 {
			fam = fam[:i]
		}
		fams[fam] += v
	}
	return series, fams
}

// checkScrapeConservation compares a final /metrics scrape against the
// end-of-run aggregates. Equality must be exact: the publish sweep stores the
// counters collect() brings up to date in stats.Machine.
func checkScrapeConservation(t *testing.T, text string, st *stats.Machine) {
	t.Helper()
	series, fams := promSeries(t, text)

	var issued, stalls, instrs int64
	var consumed, poisons, replays, retries, stale int64
	for i := range st.Cores {
		c := &st.Cores[i]
		issued += c.Issued()
		stalls += c.Stall(stats.StallFrame) + c.Stall(stats.StallInet) +
			c.Stall(stats.StallBackpressure) + c.Stall(stats.StallOther)
		instrs += c.Instrs
		consumed += c.FramesConsumed
		poisons += c.FramePoisons
		replays += c.FrameReplays
		retries += c.ReplayRetries
		stale += c.ReplayStaleDrops
	}
	var acc, miss, wide, resp, wb int64
	for i := range st.LLCs {
		l := &st.LLCs[i]
		acc += l.Accesses
		miss += l.Misses
		wide += l.WideReqs
		resp += l.RespWords
		wb += l.Writebacks
	}
	want := map[string]int64{
		"rockcress_tile_issued_cycles": issued,
		"rockcress_tile_stall_cycles":  stalls,
		"rockcress_tile_instrs":        instrs,
		"rockcress_llc_accesses":       acc,
		"rockcress_llc_misses":         miss,
		"rockcress_llc_wide_reqs":      wide,
		"rockcress_llc_resp_words":     resp,
		"rockcress_llc_writebacks":     wb,
		"rockcress_dram_reads":         st.DramReads,
		"rockcress_dram_writes":        st.DramWrites,
		"rockcress_dram_busy_cycles":   st.DramBusy,
		"rockcress_noc_flits":          st.NocFlits,
		"rockcress_noc_hops":           st.NocHops,
		// Per-link hop series must themselves conserve to the plane totals.
		"rockcress_noc_link_hops":         st.NocHops,
		"rockcress_noc_retransmits":       st.NocRetrans,
		"rockcress_noc_dropped_flits":     st.NocDropped,
		"rockcress_noc_corrupt_flits":     st.NocCorrupt,
		"rockcress_remote_stores":         st.RemoteStores,
		"rockcress_engine_fast_forwards":  st.FastForwards,
		"rockcress_engine_skipped_cycles": st.SkippedCycles,
		"rockcress_checkpoints":           st.Checkpoints,
		"rockcress_machine_cycle":         st.Cycles,
	}
	for fam, w := range want {
		if got, ok := fams[fam]; !ok && w != 0 {
			t.Errorf("scrape has no %s series (want sum %d)", fam, w)
		} else if got != w {
			t.Errorf("%s scrape sum = %d, stats aggregate %d", fam, got, w)
		}
	}
	frameEvents := map[string]int64{
		"consumed": consumed, "poisons": poisons, "replays": replays,
		"retries": retries, "stale_drops": stale,
	}
	for ev, w := range frameEvents {
		key := fmt.Sprintf("rockcress_frame_events{event=%q}", ev)
		if got := series[key]; got != w {
			t.Errorf("%s = %d, stats %d", key, got, w)
		}
	}
}

// TestMetricsConservation runs one kernel once per inertWorkers value with
// the full plane attached — registry bound, HTTP listener live, scrapes
// hammering /metrics mid-run — and asserts the cycle count matches the
// plane-free run and the final scrape equals the stats aggregates exactly.
func TestMetricsConservation(t *testing.T) {
	bench, err := kernels.Get("mvt")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := config.Preset("V4")
	if err != nil {
		t.Fatal(err)
	}
	base, err := kernels.ExecuteOpts(bench, bench.Defaults(kernels.Tiny), sw,
		config.ManycoreDefault(), kernels.ExecOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range inertWorkers {
		workers := workers
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			plane := metrics.NewPlane("")
			srv, err := metrics.Serve("127.0.0.1:0", plane)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			url := "http://" + srv.Addr()

			// Mid-run scrapes from another goroutine: they only read atomic
			// cells, so they must not move a cycle.
			stopScraping := make(chan struct{})
			scraped := make(chan struct{})
			go func() {
				defer close(scraped)
				for {
					select {
					case <-stopScraping:
						return
					default:
						resp, err := http.Get(url + "/metrics")
						if err == nil {
							_, _ = io.Copy(io.Discard, resp.Body)
							resp.Body.Close()
						}
					}
				}
			}()
			res, err := kernels.ExecuteOpts(bench, bench.Defaults(kernels.Tiny), sw,
				config.ManycoreDefault(), kernels.ExecOpts{Workers: workers, Obs: plane})
			close(stopScraping)
			<-scraped
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Cycles != base.Stats.Cycles {
				t.Errorf("cycles with plane attached = %d, plane-free %d",
					res.Stats.Cycles, base.Stats.Cycles)
			}
			checkScrapeConservation(t, scrape(t, url+"/metrics"), res.Stats)

			run := scrape(t, url+"/debug/run")
			for _, wantSub := range []string{`"state": "idle"`, `"done": 1`} {
				if !strings.Contains(run, wantSub) {
					t.Errorf("/debug/run missing %s:\n%s", wantSub, run)
				}
			}
			machinePage := scrape(t, url+"/debug/machine")
			if !strings.Contains(machinePage, fmt.Sprintf(`"cycle": %d`, res.Stats.Cycles)) {
				t.Errorf("/debug/machine cycle != %d", res.Stats.Cycles)
			}
		})
	}
}

// TestMetricsFaultConservation attaches the plane to a fault run that
// triggers an in-run frame replay (mirroring the telemetry fault test) and
// asserts the scrape still conserves and the ladder state reached /metrics.
func TestMetricsFaultConservation(t *testing.T) {
	bench, err := kernels.Get("mvt")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := config.Preset("V4")
	if err != nil {
		t.Fatal(err)
	}
	hw := config.ManycoreDefault()
	groups, err := kernels.GroupsFor(sw, sw.Apply(hw))
	if err != nil {
		t.Fatal(err)
	}
	victim := groups[0].Lanes[len(groups[0].Lanes)-1]
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.FlipSpadWord, Cycle: 2758, Tile: victim, Offset: 0, Bit: 30},
	}}
	plane := metrics.NewPlane("")
	srv, err := metrics.Serve("127.0.0.1:0", plane)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	res, err := kernels.ExecuteWithFaultsOpts(bench, bench.Defaults(kernels.Tiny), sw, hw, plan,
		kernels.ExecOpts{Obs: plane})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 {
		t.Fatalf("expected the flip to be repaired in-run (1 attempt), got %d", res.Attempts)
	}
	if res.FrameReplays < 1 {
		t.Fatalf("schedule did not trigger a replay")
	}
	text := scrape(t, "http://"+srv.Addr()+"/metrics")
	checkScrapeConservation(t, text, res.Stats)
	series, _ := promSeries(t, text)
	if got := series[`rockcress_frame_events{event="replays"}`]; got != res.FrameReplays {
		t.Errorf("scraped replays = %d, ladder counted %d", got, res.FrameReplays)
	}

	// The recovery appears in the flight recorder's note ring.
	flight := scrape(t, "http://"+srv.Addr()+"/debug/flight")
	for _, want := range []string{"fault.flip", "replay.start", "replay.ok"} {
		if !strings.Contains(flight, want) {
			t.Errorf("/debug/flight missing %q note", want)
		}
	}
}

// TestWatchdogFlightBundle wedges attempt 1 of a fault-ladder run (an inet
// queue stuck effectively forever deadlocks the fabric, tripping the cycle
// watchdog) and asserts (a) the ladder still recovers — the fired stick is
// stripped and attempt 2 succeeds — and (b) the trip auto-dumped a flight
// bundle rockdoctor can read and attribute.
func TestWatchdogFlightBundle(t *testing.T) {
	bench, err := kernels.Get("mvt")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := config.Preset("V4")
	if err != nil {
		t.Fatal(err)
	}
	hw := config.ManycoreDefault()
	groups, err := kernels.GroupsFor(sw, sw.Apply(hw))
	if err != nil {
		t.Fatal(err)
	}
	victim := groups[0].Lanes[0]
	plan := &fault.Plan{Events: []fault.Event{
		{Kind: fault.StickInetQueue, Cycle: 2000, Tile: victim, Duration: 100_000_000},
	}}
	dir := t.TempDir()
	plane := metrics.NewPlane(dir)
	// No sink: the slot-holding machine cuts the flight ring's windows itself.
	res, err := kernels.ExecuteWithFaultsOpts(bench, bench.Defaults(kernels.Tiny), sw, hw, plan,
		kernels.ExecOpts{Obs: plane})
	if err != nil {
		t.Fatalf("ladder did not recover from the watchdog trip: %v", err)
	}
	if res.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (deadlocked attempt + clean restart)", res.Attempts)
	}

	paths, err := filepath.Glob(filepath.Join(dir, "flight-watchdog-*.json"))
	if err != nil || len(paths) != 1 {
		ls, _ := os.ReadDir(dir)
		names := make([]string, 0, len(ls))
		for _, e := range ls {
			names = append(names, e.Name())
		}
		t.Fatalf("want exactly one watchdog bundle, dir has %v (glob err %v)", names, err)
	}
	b, err := metrics.ReadBundle(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != "watchdog" {
		t.Errorf("bundle reason = %q, want watchdog", b.Reason)
	}
	if b.Run != "mvt/V4" || b.Attempt != 1 {
		t.Errorf("bundle attribution = %s attempt %d, want mvt/V4 attempt 1", b.Run, b.Attempt)
	}
	if !strings.Contains(b.Error, "deadlock") {
		t.Errorf("bundle error %q does not mention deadlock", b.Error)
	}
	if b.Machine == nil {
		t.Error("bundle carries no machine heatmap")
	}
	kinds := map[string]int{}
	for _, n := range b.Notes {
		kinds[n.Kind]++
	}
	if kinds["fault.stick"] == 0 || kinds["watchdog"] == 0 {
		t.Errorf("bundle notes missing the stick/watchdog story: %v", kinds)
	}
	if len(b.Windows) == 0 {
		t.Error("bundle carries no telemetry windows from the slot holder's sampler")
	}
	for _, w := range b.Windows {
		if w.Run != "mvt/V4" || w.Attempt != 1 {
			t.Errorf("window ending at %d tagged %s attempt %d, want mvt/V4 attempt 1", w.Window.End, w.Run, w.Attempt)
		}
	}
}

// TestPlaneWithoutSinkKeepsWindows: a machine bound to a plane, with no
// trace sink at all, still cuts telemetry windows for the flight ring — at
// the default window size, ending at the run's last cycle, and summing to
// its aggregates.
func TestPlaneWithoutSinkKeepsWindows(t *testing.T) {
	bench, err := kernels.Get("mvt")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := config.Preset("V4")
	if err != nil {
		t.Fatal(err)
	}
	plane := metrics.NewPlane(t.TempDir())
	res, err := kernels.ExecuteOpts(bench, bench.Defaults(kernels.Tiny), sw,
		config.ManycoreDefault(), kernels.ExecOpts{Obs: plane})
	if err != nil {
		t.Fatal(err)
	}
	path, err := plane.DumpFlight("test", nil, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := metrics.ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	cycles := res.Stats.Cycles
	if want := int((cycles + trace.DefaultSampleEvery - 1) / trace.DefaultSampleEvery); len(b.Windows) != want {
		t.Fatalf("flight ring holds %d windows, want %d (%d cycles at %d per window)",
			len(b.Windows), want, cycles, trace.DefaultSampleEvery)
	}
	var instrs, issued int64
	for _, fw := range b.Windows {
		for _, r := range fw.Window.Roles {
			instrs += r.Instrs
			issued += r.Issued
		}
	}
	last := b.Windows[len(b.Windows)-1].Window
	if !last.Final || last.End != cycles {
		t.Errorf("last window ends at %d (final %v), want the run's last cycle %d", last.End, last.Final, cycles)
	}
	cum := trace.Fold(res.Stats, trace.Roles(res.HW.Cores, res.Groups))
	var wantInstrs, wantIssued int64
	for _, r := range cum.Roles {
		wantInstrs += r.Instrs
		wantIssued += r.Issued
	}
	if instrs != wantInstrs || issued != wantIssued {
		t.Errorf("windows sum to %d instrs / %d issued, run says %d / %d", instrs, issued, wantInstrs, wantIssued)
	}
}

// TestFlightWindowsAreJSONLLines: a window is encoded once, for both of its
// consumers. A fault ladder runs with JSONL telemetry and a plane; the
// dumped bundle's windows, re-encoded, are byte for byte the last 64 JSONL
// lines, each tagged with the run and the ladder attempt that wrote it
// (an attempt's series starts again at cycle 0).
func TestFlightWindowsAreJSONLLines(t *testing.T) {
	bench, err := kernels.Get("mvt")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := config.Preset("V4")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Parse("kill@1000:t12")
	if err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	sink := trace.NewSink(trace.Config{SampleTo: &jsonl, SampleEvery: 96})
	plane := metrics.NewPlane(t.TempDir())
	res, err := kernels.ExecuteWithFaultsOpts(bench, bench.Defaults(kernels.Tiny), sw, config.ManycoreDefault(), plan,
		kernels.ExecOpts{Obs: plane, Trace: sink})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	path, err := plane.DumpFlight("test", nil, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := metrics.ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}

	lines := bytes.SplitAfter(jsonl.Bytes(), []byte("\n"))
	lines = lines[:len(lines)-1] // after the last newline
	attempts := make([]int, len(lines))
	attempt := 0
	for i, line := range lines {
		if bytes.HasPrefix(line, []byte(`{"start":0,`)) {
			attempt++
		}
		attempts[i] = attempt
	}
	if attempt != res.Attempts {
		t.Fatalf("JSONL holds %d attempts' series, the ladder ran %d", attempt, res.Attempts)
	}
	if len(lines) <= 64 {
		t.Fatalf("run cut %d windows, want more than the ring's 64", len(lines))
	}
	if len(b.Windows) != 64 {
		t.Fatalf("bundle holds %d windows, want 64", len(b.Windows))
	}
	tail := len(lines) - len(b.Windows)
	if attempts[tail] == attempt {
		t.Fatalf("the ring's windows all come from attempt %d; want them to span two", attempt)
	}
	for i, fw := range b.Windows {
		line := lines[tail+i]
		got, err := json.Marshal(&fw.Window)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), line) {
			t.Fatalf("bundle window %d:\n got  %s\n want %s", i, got, line)
		}
		if fw.Run != "mvt/V4" || fw.Attempt != attempts[tail+i] {
			t.Errorf("bundle window %d tagged %s attempt %d, want mvt/V4 attempt %d", i, fw.Run, fw.Attempt, attempts[tail+i])
		}
	}
}

var update = flag.Bool("update", false, "rewrite golden files")

// TestMetricsExpositionGolden pins the shape of the Prometheus exposition —
// every family's HELP and TYPE line and every series' name and label set,
// in registration order — for a fixed gemm/V4 tiny run. Values are stripped:
// the conservation tests own those. A refactor of the publish path must
// leave this byte-identical.
func TestMetricsExpositionGolden(t *testing.T) {
	bench, err := kernels.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := config.Preset("V4")
	if err != nil {
		t.Fatal(err)
	}
	plane := metrics.NewPlane("")
	if _, err := kernels.ExecuteOpts(bench, bench.Defaults(kernels.Tiny), sw,
		config.ManycoreDefault(), kernels.ExecOpts{Obs: plane}); err != nil {
		t.Fatal(err)
	}
	var page strings.Builder
	if err := plane.Registry().WriteProm(&page); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(page.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		got.WriteString(line + "\n")
	}
	const path = "testdata/metrics_exposition.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/machine -run TestMetricsExpositionGolden -update)", err)
	}
	if got.String() != string(want) {
		t.Errorf("exposition shape drifted from %s (rerun with -update if intentional); got:\n%s", path, got.String())
	}
}
