package harness

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"

	"rockcress/internal/kernels"
	"rockcress/internal/metrics"
)

// promValue extracts one series value from a Prometheus exposition, or -1
// if the series is absent. Returns an error if the matching line is torn
// (value missing or unparsable).
func promValue(exposition, series string) (int64, error) {
	for _, line := range strings.Split(exposition, "\n") {
		if !strings.HasPrefix(line, series+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
		if err != nil {
			return 0, err
		}
		return int64(v), nil
	}
	return -1, nil
}

// TestPlaneRebindDuringSweep drives a parallel figure sweep against a live
// observability plane while scraper goroutines continuously read the
// Prometheus exposition, the run snapshot, and the machine heatmap — the
// same reads the HTTP handlers behind -listen perform. Every cell's machine
// races the others for the per-machine series slot (TryBindMachine /
// ReleaseMachine), so under -race this is the detector's workload for the
// plane. It pins three properties: the exposition is never torn (every
// sample line parses and sample counts only grow), the sweep counters are
// monotonic across scrapes, and after the sweep the counts reconcile and
// the machine slot has been released for the next binder.
func TestPlaneRebindDuringSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	p := metrics.NewPlane("")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var fails []string
	record := func(f string, args ...any) {
		mu.Lock()
		if len(fails) < 10 {
			fails = append(fails, fmt.Sprintf(f, args...))
		}
		mu.Unlock()
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastDone, lastCycles := int64(-1), int64(-1)
			for {
				select {
				case <-stop:
					return
				default:
				}
				var b bytes.Buffer
				if err := p.Registry().WriteProm(&b); err != nil {
					record("WriteProm: %v", err)
					return
				}
				for _, line := range strings.Split(b.String(), "\n") {
					if line == "" || strings.HasPrefix(line, "#") {
						continue
					}
					sp := strings.LastIndexByte(line, ' ')
					if sp < 0 {
						record("torn exposition line %q", line)
						return
					}
					if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
						record("unparsable sample %q: %v", line, err)
						return
					}
				}
				done, err := promValue(b.String(), "rockcress_sweep_cells_done")
				if err != nil {
					record("cells_done: %v", err)
					return
				}
				cycles, err := promValue(b.String(), "rockcress_sim_cycles")
				if err != nil {
					record("sim_cycles: %v", err)
					return
				}
				if done < lastDone || cycles < lastCycles {
					record("counter went backward: done %d->%d cycles %d->%d",
						lastDone, done, lastCycles, cycles)
					return
				}
				lastDone, lastCycles = done, cycles
				// The run snapshot and machine heatmap are the other two
				// read paths; both must be safe mid-rebind.
				snap := p.Run().Snapshot()
				if snap.Sweep.Done < lastDone {
					record("snapshot done %d below exposition %d", snap.Sweep.Done, lastDone)
					return
				}
				_ = p.MachineSnapshot()
			}
		}()
	}

	r := New(Options{Scale: kernels.Tiny, Out: io.Discard,
		Benches: []string{"gemm", "mvt", "gesummv"}, Jobs: 4, Obs: p})
	if err := r.Fig16(io.Discard); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	for _, f := range fails {
		t.Error(f)
	}

	snap := p.Run().Snapshot()
	if snap.State != "idle" || snap.Sweep.Failed != 0 || snap.Sweep.Done == 0 ||
		snap.Sweep.Done != snap.Sweep.Planned {
		t.Errorf("sweep did not reconcile: %+v", snap.Sweep)
	}
	if snap.Sim.Cycles == 0 {
		t.Error("no simulated cycles accumulated")
	}
	// Every machine must have released the per-machine slot on teardown, or
	// the next sweep's heatmap would silently stay bound to a dead machine.
	if !p.TryBindMachine() {
		t.Error("machine slot still bound after sweep")
	}
	p.ReleaseMachine()
	if p.MachineSnapshot() == nil {
		t.Error("machine provider gone after sweep; /debug/machine would 404")
	}
}

// TestFaultFigureFeedsPlane pins the ladder cells' route to the plane: the
// fault figures hand the session's plane to every execution they start, so
// FigFault at Tiny ends with its 3 base runs plus its 12 faulted ladder
// cells (3 configurations x 4 kill counts; the k=0 column is the base run
// and simulates nothing more) done on /debug/run — and, because the figure
// plans the ladder cells up front, with the raw planned gauge at the same
// 15, so a watcher sees an ETA for them (the snapshot clamps planned up to
// done, which would hide a shortfall; the exposition does not). It prints
// the same table with or without a plane.
func TestFaultFigureFeedsPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	var bare, observed bytes.Buffer
	if err := New(Options{Scale: kernels.Tiny, Out: io.Discard}).FigFault(&bare); err != nil {
		t.Fatal(err)
	}
	p := metrics.NewPlane("")
	if err := New(Options{Scale: kernels.Tiny, Out: io.Discard, Obs: p}).FigFault(&observed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bare.Bytes(), observed.Bytes()) {
		t.Errorf("figure differs with a plane attached:\n%s\nvs\n%s", observed.Bytes(), bare.Bytes())
	}
	if snap := p.Run().Snapshot(); snap.Sweep.Done != 15 || snap.Sweep.Failed != 0 {
		t.Errorf("plane saw %d cells done (%d failed), want 15 (3 base runs + 12 ladder cells)",
			snap.Sweep.Done, snap.Sweep.Failed)
	}
	var prom bytes.Buffer
	if err := p.Registry().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"rockcress_sweep_cells_planned", "rockcress_sweep_cells_done"} {
		if v, err := promValue(prom.String(), series); err != nil || v != 15 {
			t.Errorf("%s = %d (%v), want 15", series, v, err)
		}
	}
}

// TestReplayFigureIsOneCellPerProbe: under -listen a probe is one sweep cell,
// planned before it starts — not one per run inside the search, which put
// 35 cells done against 0 planned on the exposition for mvt alone and left
// a watcher with no ETA. The dry run inside the search is a measurement on a
// machine that stops early: it must never take the plane's machine slot, so
// the next machine built on the plane still binds. The table is the same
// with and without a plane.
func TestReplayFigureIsOneCellPerProbe(t *testing.T) {
	opts := Options{Scale: kernels.Tiny, Out: io.Discard, Benches: []string{"mvt"}}
	var bare, observed bytes.Buffer
	if err := New(opts).FigReplay(&bare); err != nil {
		t.Fatal(err)
	}
	p := metrics.NewPlane("")
	opts.Obs = p
	if err := New(opts).FigReplay(&observed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bare.Bytes(), observed.Bytes()) {
		t.Errorf("figure differs with a plane attached:\n%s\nvs\n%s", observed.Bytes(), bare.Bytes())
	}
	var prom bytes.Buffer
	if err := p.Registry().WriteProm(&prom); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"rockcress_sweep_cells_planned", "rockcress_sweep_cells_done"} {
		if v, err := promValue(prom.String(), series); err != nil || v != 1 {
			t.Errorf("%s = %d (%v), want 1", series, v, err)
		}
	}
	if snap := p.Run().Snapshot(); snap.Sweep.Failed != 0 || len(snap.Active) != 0 {
		t.Errorf("after the figure: %d cells failed, %d still active", snap.Sweep.Failed, len(snap.Active))
	}
	if !p.TryBindMachine() {
		t.Fatal("the figure left the plane's machine slot taken")
	}
	p.ReleaseMachine()
}
