package harness

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"rockcress/internal/kernels"
	"rockcress/internal/metrics"
)

// TestPlaneRebindDuringSweep drives a parallel figure sweep against a plane
// while dumper goroutines keep writing flight bundles, as SIGQUIT does, and
// reading the run status. Every cell's machine races the others for the
// machine slot (TryBindMachine / ReleaseMachine), so under -race this is the
// detector's workload for the plane. It pins three properties: every
// bundle reads back whole, the sweep counters never go backward across
// dumps, and after the sweep the counts reconcile and the machine slot has
// been released for the next binder.
func TestPlaneRebindDuringSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	p := metrics.NewPlane(t.TempDir())
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
				case <-time.After(time.Millisecond):
				}
				path, err := p.DumpFlight("sigquit", nil, "")
				if err != nil {
					record("DumpFlight: %v", err)
					return
				}
				b, err := metrics.ReadBundle(path)
				if err != nil {
					record("torn bundle: %v", err)
					return
				}
				os.Remove(path)
				if b.Sweep == nil {
					continue // no cell planned yet
				}
				done, cycles := b.Sweep.Done, b.Sweep.SimCycles
				if done < lastDone || cycles < lastCycles {
					record("counter went backward: done %d->%d cycles %d->%d",
						lastDone, done, lastCycles, cycles)
					return
				}
				lastDone, lastCycles = done, cycles
				// The run status is the other read path; it must be safe
				// mid-rebind too.
				if snap := p.Run().Snapshot(); snap.Done < lastDone {
					record("snapshot done %d below bundle %d", snap.Done, lastDone)
					return
				}
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
	if len(snap.Active) != 0 || snap.Failed != 0 || snap.Done == 0 || snap.Done != snap.Planned {
		t.Errorf("sweep did not reconcile: %+v", snap)
	}
	if snap.SimCycles == 0 {
		t.Error("no simulated cycles accumulated")
	}
	// Every machine must have released the machine slot on teardown, or the
	// next sweep's bundles would silently stay bound to a dead machine.
	if !p.TryBindMachine() {
		t.Error("machine slot still bound after sweep")
	}
	p.ReleaseMachine()
	if b, err := metrics.ReadBundle(mustDump(t, p)); err != nil || b.Machine == nil {
		t.Errorf("bundle after the sweep: %v, machine half %v; want the last machine's heatmap", err, b != nil && b.Machine != nil)
	}
}

// mustDump writes a bundle from p and returns its path.
func mustDump(t *testing.T, p *metrics.Plane) string {
	t.Helper()
	path, err := p.DumpFlight("test", nil, "")
	if err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFaultFigureFeedsPlane pins the ladder cells' route to the plane: the
// fault figures hand the session's plane to every execution they start, so
// FigFault at Tiny ends with its 3 base runs plus its 12 faulted ladder
// cells (3 configurations x 4 kill counts; the k=0 column is the base run
// and simulates nothing more) done in the run status — and, because the
// figure plans the ladder cells up front, with planned at the same 15, so
// a bundle's sweep section counts them before they run. It prints the same
// table with or without a plane.
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
	if snap := p.Run().Snapshot(); snap.Planned != 15 || snap.Done != 15 || snap.Failed != 0 {
		t.Errorf("plane planned %d cells and saw %d done (%d failed), want 15 and 15 (3 base runs + 12 ladder cells)",
			snap.Planned, snap.Done, snap.Failed)
	}
}

// TestReplayFigureIsOneCellPerProbe: on a plane a probe is one sweep cell,
// planned before it starts — not one per run inside the search, which put
// 35 cells done against 0 planned for mvt alone. The dry run inside the
// search is a measurement on a machine that stops early: it must never take
// the plane's machine slot, so the next machine built on the plane still
// binds. The table is the same with and without a plane.
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
	snap := p.Run().Snapshot()
	if snap.Planned != 1 || snap.Done != 1 {
		t.Errorf("planned %d, done %d, want 1 and 1", snap.Planned, snap.Done)
	}
	if snap.Failed != 0 || len(snap.Active) != 0 {
		t.Errorf("after the figure: %d cells failed, %d still active", snap.Failed, len(snap.Active))
	}
	if !p.TryBindMachine() {
		t.Fatal("the figure left the plane's machine slot taken")
	}
	p.ReleaseMachine()
}
