package metrics

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"rockcress/internal/trace"
)

// windowLine is w as the sampler writes it: one JSONL line.
func windowLine(t *testing.T, w trace.Window) []byte {
	t.Helper()
	b, err := json.Marshal(&w)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestFlightRings checks ring bounds (oldest entries drop), run tagging, and
// the Dump -> ReadBundle round trip.
func TestFlightRings(t *testing.T) {
	f := NewFlight()
	f.SetRun("gemm/V4", 1)
	for i := 0; i < defaultWindowCap+10; i++ {
		f.Retain(windowLine(t, trace.Window{Start: int64(i * 256), End: int64((i + 1) * 256)}))
	}
	for i := 0; i < defaultNoteCap+20; i++ {
		f.Note(int64(i), "fault.flip", fmt.Sprintf("note %d", i))
	}
	ws, ns := f.Counts()
	if ws != defaultWindowCap || ns != defaultNoteCap {
		t.Fatalf("counts = %d/%d, want %d/%d", ws, ns, defaultWindowCap, defaultNoteCap)
	}

	heat := MachineSnap{Cycle: 12345, MeshW: 8, MeshH: 8,
		Tiles: []TileSnap{{Tile: 0, Role: "mimd", Issued: 10, Inet: 99}}}
	f.SetMachine(&heat)
	heat.Tiles[0].Issued = 11 // the recorder holds a copy

	dir := t.TempDir()
	path, err := f.Dump(dir, "watchdog", errors.New("machine: deadlock"), "tile 3 wedged", &SweepSnap{Planned: 4, Done: 1})
	if err != nil {
		t.Fatal(err)
	}
	if match, _ := filepath.Match("flight-watchdog-*.json", filepath.Base(path)); !match {
		t.Errorf("bundle name %q does not match flight-watchdog-*.json", filepath.Base(path))
	}
	b, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != "watchdog" || b.Run != "gemm/V4" || b.Attempt != 1 {
		t.Errorf("bundle identity = %s/%s/%d", b.Reason, b.Run, b.Attempt)
	}
	if b.Error != "machine: deadlock" || b.TileState != "tile 3 wedged" {
		t.Errorf("bundle error/state = %q/%q", b.Error, b.TileState)
	}
	if b.Machine == nil || b.Machine.Cycle != 12345 || b.Machine.Tiles[0].Issued != 10 {
		t.Errorf("bundle machine half = %+v, want the heatmap as SetMachine copied it", b.Machine)
	}
	if b.Sweep == nil || b.Sweep.Planned != 4 || b.Sweep.Done != 1 {
		t.Errorf("bundle sweep section = %+v, want planned 4, done 1", b.Sweep)
	}
	if len(b.Windows) != defaultWindowCap || len(b.Notes) != defaultNoteCap {
		t.Fatalf("bundle rings %d/%d, want %d/%d",
			len(b.Windows), len(b.Notes), defaultWindowCap, defaultNoteCap)
	}
	// Oldest-first, and the ring dropped exactly the oldest overflow.
	if got := b.Windows[0].Window.Start; got != 10*256 {
		t.Errorf("oldest retained window starts at %d, want %d", got, 10*256)
	}
	if got := b.Notes[0].Detail; got != "note 20" {
		t.Errorf("oldest retained note = %q, want \"note 20\"", got)
	}
	if b.Windows[0].Run != "gemm/V4" {
		t.Errorf("window run tag = %q", b.Windows[0].Run)
	}

	// Nil-safety: every producer-facing method on a nil recorder is a no-op.
	var nf *Flight
	nf.SetRun("x", 1)
	nf.Retain(windowLine(t, trace.Window{}))
	nf.Note(0, "k", "d")
	nf.SetMachine(&heat)
	if _, err := nf.Dump(dir, "crash", nil, "", nil); err != nil {
		t.Error(err)
	}
}

// TestRunStatusSnapshot drives the sweep tracker through a small ladder and
// checks the sweep section a bundle carries.
func TestRunStatusSnapshot(t *testing.T) {
	p := NewPlane("")
	rs := p.Run()
	if snap := rs.Snapshot(); snap != nil {
		t.Errorf("an unused plane's sweep section = %+v, want none", snap)
	}
	rs.AddPlanned(3)
	tok := rs.Begin("mvt", "V4")
	rs.SetAttempt(tok, 2)

	snap := rs.Snapshot()
	if len(snap.Active) != 1 || snap.Active[0].Kernel != "mvt" || snap.Active[0].Attempt != 2 {
		t.Errorf("active = %+v", snap.Active)
	}
	if snap.Planned != 3 {
		t.Errorf("planned = %d, want 3", snap.Planned)
	}

	rs.AddSim(1_000_000, 2_000_000_000)
	rs.End(tok, nil)
	tok2 := rs.Begin("mvt", "NV")
	rs.End(tok2, errors.New("boom"))
	rs.End(tok2, nil) // a second End of one cell counts nothing

	snap = rs.Snapshot()
	if len(snap.Active) != 0 {
		t.Errorf("active after every End = %+v", snap.Active)
	}
	if snap.Done != 1 || snap.Failed != 1 {
		t.Errorf("done/failed = %d/%d, want 1/1", snap.Done, snap.Failed)
	}
	if snap.SimCycles != 1_000_000 || snap.SimWallS != 2 {
		t.Errorf("sim = %d cycles in %vs, want 1000000 in 2s", snap.SimCycles, snap.SimWallS)
	}
}

// TestPlaneMachineSlot checks the single-binder CAS, and that the heatmap
// the last binder left stays in the recorder after it lets go.
func TestPlaneMachineSlot(t *testing.T) {
	p := NewPlane(t.TempDir())
	if !p.TryBindMachine() {
		t.Fatal("first bind refused")
	}
	if p.TryBindMachine() {
		t.Fatal("second concurrent bind allowed")
	}
	p.Flight().SetMachine(&MachineSnap{Cycle: 7})
	p.ReleaseMachine()
	path, err := p.DumpFlight("test", nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if b, err := ReadBundle(path); err != nil || b.Machine == nil || b.Machine.Cycle != 7 {
		t.Errorf("bundle after ReleaseMachine: %v, machine %+v; want the last heatmap", err, b.Machine)
	}
	if !p.TryBindMachine() {
		t.Error("slot not reusable after release")
	}
	var np *Plane
	if np.TryBindMachine() {
		t.Error("nil plane bound")
	}
	if np.Run() != nil || np.Flight() != nil {
		t.Error("nil plane accessors should return nil")
	}
}

// TestDebugBuildEndpoint: the build stamp report.json carries names the
// toolchain and the module.
func TestDebugBuildEndpoint(t *testing.T) {
	b := CurrentBuild()
	if b == nil || b.GoVersion != runtime.Version() || b.Path == "" {
		t.Errorf("CurrentBuild() = %+v, want go_version %s and a module path", b, runtime.Version())
	}
}

// TestOldBundleReads: a bundle written before bundles had a sweep section
// (a watchdog trip's, cut to a few rows) still reads, machine half and all.
func TestOldBundleReads(t *testing.T) {
	b, err := ReadBundle("testdata/flight-watchdog-schema1.json")
	if err != nil {
		t.Fatal(err)
	}
	if b.Reason != "watchdog" || b.Run != "mvt/V4" || b.Sweep != nil {
		t.Errorf("bundle %s/%s, sweep %+v; want watchdog/mvt/V4 and no sweep section", b.Reason, b.Run, b.Sweep)
	}
	if b.Machine == nil || len(b.Machine.Tiles) != 4 || len(b.Windows) != 2 || len(b.Notes) != 3 {
		t.Errorf("bundle lost rows: machine %v, %d windows, %d notes", b.Machine != nil, len(b.Windows), len(b.Notes))
	}
}
