package machine_test

// Flight-recorder contract tests: (1) conservation — the heatmap a bundle
// carries after a run equals the end-of-run stats.Machine aggregates
// exactly, because both read the same collected counters; (2) the plane is
// architecturally invisible — cycle counts with bundles dumped mid-run from
// another goroutine are bit-identical; (3) a fault run through the recovery
// ladder conserves too; (4) a watchdog-tripped attempt dumps a flight
// bundle the ladder then recovers from.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/kernels"
	"rockcress/internal/metrics"
	"rockcress/internal/stats"
	"rockcress/internal/trace"
)

// dumpBundle writes one bundle from the plane, as a SIGQUIT does, and reads
// it back.
func dumpBundle(t *testing.T, plane *metrics.Plane) *metrics.Bundle {
	t.Helper()
	path, err := plane.DumpFlight("test", nil, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := metrics.ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// dumpWhile dumps bundles from another goroutine, as the SIGQUIT handler
// does, until the returned stop is called; stop returns how many it wrote
// and the first error.
func dumpWhile(plane *metrics.Plane) (stop func() (int, error)) {
	done := make(chan struct{})
	var n int
	var first error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
			path, err := plane.DumpFlight("sigquit", nil, "")
			if err == nil {
				_, err = metrics.ReadBundle(path)
			}
			if err != nil && first == nil {
				first = err
			}
			n++
		}
	}()
	return func() (int, error) {
		close(done)
		wg.Wait()
		return n, first
	}
}

// checkHeatmapConservation compares a bundle's machine half against the
// end-of-run aggregates. Equality must be exact: the last heatmap copy is
// of the counters Run's final collect brought up to date in stats.Machine.
func checkHeatmapConservation(t *testing.T, b *metrics.Bundle, st *stats.Machine) {
	t.Helper()
	m := b.Machine
	if m == nil {
		t.Fatal("bundle carries no machine heatmap")
	}
	if m.Cycle != st.Cycles || len(m.Tiles) != len(st.Cores) {
		t.Fatalf("heatmap at cycle %d with %d tiles, run ended at %d with %d", m.Cycle, len(m.Tiles), st.Cycles, len(st.Cores))
	}
	for i, tile := range m.Tiles {
		c := &st.Cores[i]
		want := metrics.TileSnap{Tile: i, Role: tile.Role, Issued: c.Issued(), Instrs: c.Instrs,
			Frame: c.Stall(stats.StallFrame), Inet: c.Stall(stats.StallInet),
			Backpressure: c.Stall(stats.StallBackpressure), Other: c.Stall(stats.StallOther)}
		if tile != want {
			t.Errorf("tile %d heatmap row %+v, stats %+v", i, tile, want)
		}
	}
	// Per-link hops conserve to the planes' total.
	var hops int64
	for _, l := range m.Links {
		hops += l.Hops
	}
	if hops != st.NocHops {
		t.Errorf("heatmap links sum to %d hops, stats %d", hops, st.NocHops)
	}
	// The gauges are the final window's.
	if last := b.Windows[len(b.Windows)-1].Window; !last.Final ||
		m.FramesOccupied != last.FramesOccupied || m.InetHighWater != last.InetHighWater {
		t.Errorf("heatmap gauges %d/%d, final window (final %v) %d/%d", m.FramesOccupied, m.InetHighWater,
			last.Final, last.FramesOccupied, last.InetHighWater)
	}
}

// TestMetricsConservation runs one kernel once per inertWorkers value with
// the plane attached and bundles dumped from another goroutine throughout,
// and asserts the cycle count matches the plane-free run, the final
// bundle's heatmap equals the stats aggregates exactly, and its sweep
// section counts the one cell and its cycles.
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
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			plane := metrics.NewPlane(t.TempDir())
			stop := dumpWhile(plane)
			res, err := kernels.ExecuteOpts(bench, bench.Defaults(kernels.Tiny), sw,
				config.ManycoreDefault(), kernels.ExecOpts{Workers: workers, Obs: plane})
			if _, derr := stop(); derr != nil {
				t.Errorf("mid-run dump: %v", derr)
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Cycles != base.Stats.Cycles {
				t.Errorf("cycles with plane attached = %d, plane-free %d",
					res.Stats.Cycles, base.Stats.Cycles)
			}
			b := dumpBundle(t, plane)
			checkHeatmapConservation(t, b, res.Stats)
			if sw := b.Sweep; sw == nil || sw.Done != 1 || sw.Failed != 0 || len(sw.Active) != 0 || sw.SimCycles != res.Stats.Cycles {
				t.Errorf("sweep section %+v, want one cell done in %d cycles", sw, res.Stats.Cycles)
			}
		})
	}
}

// TestMetricsFaultConservation attaches the plane to a fault run that
// triggers an in-run frame replay (mirroring the telemetry fault test) and
// asserts the final bundle still conserves, its windows count the ladder's
// replays, and its notes tell the recovery.
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
	plane := metrics.NewPlane(t.TempDir())
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
	b := dumpBundle(t, plane)
	checkHeatmapConservation(t, b, res.Stats)
	var replays int64
	for _, w := range b.Windows {
		replays += w.Window.Frames.Replays
	}
	if replays != res.FrameReplays {
		t.Errorf("bundle windows count %d replays, ladder counted %d", replays, res.FrameReplays)
	}
	kinds := map[string]bool{}
	for _, n := range b.Notes {
		kinds[n.Kind] = true
	}
	for _, want := range []string{"fault.flip", "replay.start", "replay.ok"} {
		if !kinds[want] {
			t.Errorf("bundle notes missing %q", want)
		}
	}
}

// TestFlightDumpDuringRun writes bundles from a second goroutine, as the
// SIGQUIT handler does, while a bound machine runs on this one: the
// recorder's mutex is all that stands between them (go test -race holds
// it). Every bundle reads back, and their heatmaps never go back in time.
func TestFlightDumpDuringRun(t *testing.T) {
	plane := metrics.NewPlane(t.TempDir())
	m := buildForAllocTest(t, "gemm", "V4", plane, nil)
	defer m.Recycle()
	defer m.ReleaseObs()
	if !m.ObsBound() {
		t.Fatal("machine did not bind to the plane")
	}
	stop := make(chan struct{})
	dumped := make(chan int64) // each bundle's heatmap cycle
	go func() {
		defer close(dumped)
		for {
			path, err := plane.DumpFlight("sigquit", nil, "")
			var b *metrics.Bundle
			if err == nil {
				b, err = metrics.ReadBundle(path)
			}
			if err != nil {
				t.Error(err)
				return
			}
			select {
			case dumped <- b.Machine.Cycle:
			case <-stop:
				return
			}
		}
	}()
	// Each RunUntil copies a heatmap in at its checkpoints while the next
	// bundle is being written; the bundle after it is taken before the
	// next step.
	last := int64(-1)
	for at := int64(256); at <= 1280; at += 256 {
		if err := m.RunUntil(at); err != nil {
			t.Fatal(err)
		}
		cycle, ok := <-dumped
		if !ok {
			t.Fatal("the dumping goroutine stopped")
		}
		if cycle < last {
			t.Errorf("a bundle's heatmap is at cycle %d, after one at %d", cycle, last)
		}
		last = cycle
	}
	close(stop)
	for range dumped { // let the dumper finish its bundle and exit
	}
	if last <= 0 {
		t.Errorf("no bundle saw the run advance (last heatmap at cycle %d)", last)
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
