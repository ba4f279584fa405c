package metrics

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"rockcress/internal/trace"
)

// TestRegistryGetOrCreate pins the registration contract: the same
// name+labels always resolve to the same cell (fault-ladder attempts reuse
// series), different labels get distinct cells, and nil receivers are safe.
func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total_things", "things", L("tile", "0"))
	b := r.Counter("x_total_things", "things", L("tile", "0"))
	if a != b {
		t.Error("re-registering the same series returned a different cell")
	}
	c := r.Counter("x_total_things", "things", L("tile", "1"))
	if c == a {
		t.Error("distinct labels shared a cell")
	}
	a.Add(3)
	b.Add(4)
	if got := a.Load(); got != 7 {
		t.Errorf("shared cell = %d, want 7", got)
	}
	if c.Load() != 0 {
		t.Error("label-distinct cell saw the other's adds")
	}

	var nilReg *Registry
	cell := nilReg.Counter("whatever", "")
	cell.Add(1) // must not panic
	if cell.Load() != 0 {
		t.Error("nil-registry cell should read 0")
	}
	var nilCell *Cell
	nilCell.Add(1)
	nilCell.Store(2)
	if nilCell.Load() != 0 {
		t.Error("nil cell should read 0")
	}
}

// TestRegistryLabelSetKey: a series' label set is its family's map key, so
// it must stay within the 128 bytes a Go map stores inline (a larger key
// costs an allocation per insert), and a registration with more labels
// than the set holds is a bug at the call site.
func TestRegistryLabelSetKey(t *testing.T) {
	if size := unsafe.Sizeof(labelSet{}); size > 128 {
		t.Errorf("labelSet is %d bytes, want at most 128", size)
	}
	r := NewRegistry()
	four := []Label{L("a", "1"), L("b", "2"), L("c", "3"), L("d", "4")}
	if r.Counter("x_four", "four", four...) != r.Counter("x_four", "four", four...) {
		t.Error("a four-label series re-registered to a new cell")
	}
	if r.Counter("x_four", "four", four[:3]...) == r.Counter("x_four", "four", four...) {
		t.Error("three and four labels resolved to one series")
	}
	defer func() {
		if recover() == nil {
			t.Error("five labels registered without a panic")
		}
	}()
	r.Counter("x_five", "five", append(four, L("e", "5"))...)
}

// TestWritePromFormat checks the text exposition: HELP/TYPE headers,
// registration-order determinism, label escaping, and gauge vs counter.
func TestWritePromFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("rc_cycles", "Cycles.", L("tile", "0")).Store(41)
	r.Counter("rc_cycles", "Cycles.", L("tile", "1")).Store(1)
	r.Gauge("rc_depth", "Depth.").Store(-5)
	r.Counter("rc_weird", "Weird.", L("k", "a\"b\\c\nd")).Store(1)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "# HELP rc_cycles Cycles.\n# TYPE rc_cycles counter\n" +
		"rc_cycles{tile=\"0\"} 41\nrc_cycles{tile=\"1\"} 1\n" +
		"# HELP rc_depth Depth.\n# TYPE rc_depth gauge\nrc_depth -5\n" +
		"# HELP rc_weird Weird.\n# TYPE rc_weird counter\n" +
		"rc_weird{k=\"a\\\"b\\\\c\\nd\"} 1\n"
	if got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// A second write of the same state must be byte-identical.
	var sb2 strings.Builder
	if err := r.WriteProm(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != got {
		t.Error("two scrapes of identical state differ")
	}
}

// TestHistogram checks bucket assignment (le is inclusive), the cumulative
// exposition, and the float sum.
func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rc_dur_seconds", "Durations.", []float64{1, 2.5, 10})
	for _, v := range []float64{0.5, 1, 2, 3, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 106.5 {
		t.Errorf("sum = %v, want 106.5", got)
	}
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`rc_dur_seconds_bucket{le="1"} 2`, // 0.5 and the inclusive 1
		`rc_dur_seconds_bucket{le="2.5"} 3`,
		`rc_dur_seconds_bucket{le="10"} 4`,
		`rc_dur_seconds_bucket{le="+Inf"} 5`,
		`rc_dur_seconds_sum 106.5`,
		`rc_dur_seconds_count 5`,
	} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("exposition missing %q:\n%s", line, sb.String())
		}
	}
	if h2 := r.Histogram("rc_dur_seconds", "Durations.", []float64{1, 2.5, 10}); h2.Count() != 5 {
		t.Error("re-registered histogram lost its observations")
	}
}

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
	ws, ns, d := f.Counts()
	if ws != defaultWindowCap || ns != defaultNoteCap || d != 0 {
		t.Fatalf("counts = %d/%d/%d, want %d/%d/0", ws, ns, d, defaultWindowCap, defaultNoteCap)
	}

	dir := t.TempDir()
	path, err := f.Dump(dir, "watchdog", errors.New("machine: deadlock"), "tile 3 wedged", &MachineSnap{
		Cycle: 12345, MeshW: 8, MeshH: 8,
		Tiles: []TileSnap{{Tile: 0, Role: "mimd", Issued: 10, Inet: 99}},
	})
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
	if b.Machine == nil || b.Machine.Cycle != 12345 {
		t.Error("bundle lost the machine snapshot")
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
	if _, _, dumps := f.Counts(); dumps != 1 {
		t.Errorf("dump count = %d, want 1", dumps)
	}

	// Nil-safety: every producer-facing method on a nil recorder is a no-op.
	var nf *Flight
	nf.SetRun("x", 1)
	nf.Retain(windowLine(t, trace.Window{}))
	nf.Note(0, "k", "d")
	if _, err := nf.Dump(dir, "crash", nil, "", nil); err != nil {
		t.Error(err)
	}
}

// TestRunStatusSnapshot drives the sweep tracker through a small ladder and
// checks the /debug/run view and its registry series agree.
func TestRunStatusSnapshot(t *testing.T) {
	p := NewPlane("")
	rs := p.Run()
	rs.AddPlanned(3)
	tok := rs.Begin("mvt", "V4")
	rs.SetAttempt(tok, 2)

	snap := rs.Snapshot()
	if snap.State != "running" {
		t.Errorf("state = %q, want running", snap.State)
	}
	if len(snap.Active) != 1 || snap.Active[0].Kernel != "mvt" || snap.Active[0].Attempt != 2 {
		t.Errorf("active = %+v", snap.Active)
	}
	if snap.Sweep.Planned != 3 {
		t.Errorf("planned = %d, want 3", snap.Sweep.Planned)
	}

	rs.AddSim(1_000_000, 2_000_000_000) // 1M cycles in 2s = 0.5 Msim-cycles/s
	rs.End(tok, nil)
	tok2 := rs.Begin("mvt", "NV")
	rs.End(tok2, errors.New("boom"))

	snap = rs.Snapshot()
	if snap.State != "idle" {
		t.Errorf("state = %q, want idle", snap.State)
	}
	if snap.Sweep.Done != 1 || snap.Sweep.Failed != 1 {
		t.Errorf("done/failed = %d/%d, want 1/1", snap.Sweep.Done, snap.Sweep.Failed)
	}
	if snap.Sim.Cycles != 1_000_000 || snap.Sim.Mips != 0.5 {
		t.Errorf("sim meter = %+v", snap.Sim)
	}

	var sb strings.Builder
	if err := p.Registry().WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"rockcress_sweep_cells_done 1",
		"rockcress_sweep_cells_failed 1",
		"rockcress_sweep_cells_active 0",
		"rockcress_sim_cycles 1000000",
	} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("/metrics missing %q", line)
		}
	}
}

// TestPlaneMachineSlot checks the single-binder CAS and provider retention.
func TestPlaneMachineSlot(t *testing.T) {
	p := NewPlane("")
	if !p.TryBindMachine() {
		t.Fatal("first bind refused")
	}
	if p.TryBindMachine() {
		t.Fatal("second concurrent bind allowed")
	}
	p.SetMachineProvider(func() *MachineSnap { return &MachineSnap{Cycle: 7} })
	p.ReleaseMachine()
	if s := p.MachineSnapshot(); s == nil || s.Cycle != 7 {
		t.Error("provider did not survive ReleaseMachine")
	}
	if !p.TryBindMachine() {
		t.Error("slot not reusable after release")
	}
	var np *Plane
	if np.TryBindMachine() {
		t.Error("nil plane bound")
	}
	if np.Run() != nil || np.Flight() != nil || np.Registry() != nil {
		t.Error("nil plane accessors should return nil")
	}
}

// TestDebugBuildEndpoint serves the listener on a free loopback port and
// reads /debug/build: the one build stamp report.json also carries.
func TestDebugBuildEndpoint(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", NewPlane(""))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/debug/build")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b BuildInfo
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.GoVersion != runtime.Version() || b.Path == "" {
		t.Errorf("/debug/build = %+v, want go_version %s and a module path", b, runtime.Version())
	}
}
