package analyze

import (
	"os"
	"path/filepath"
	"testing"

	"rockcress/internal/trace"
)

func busyWindow(start, end int64, rc trace.RoleCounters, dramBusy int64) trace.Window {
	return trace.Window{
		Start: start, End: end,
		Roles: map[string]trace.RoleCounters{"mimd": rc},
		Dram:  trace.DramCounters{Busy: dramBusy},
	}
}

func TestTimelineMergesPhases(t *testing.T) {
	sat := trace.RoleCounters{Issued: 300, Frame: 600, Other: 124}
	idle := trace.RoleCounters{}
	barrier := trace.RoleCounters{Issued: 200, Other: 800}
	ws := []trace.Window{
		busyWindow(0, 1024, sat, 1000),    // dram-saturated
		busyWindow(1024, 2048, sat, 1000), // merges into the phase above
		busyWindow(2048, 3072, idle, 0),   // idle
		busyWindow(3072, 4000, barrier, 0),
		// A fault-recovery restart: windows begin again at cycle 0. Same
		// label as the last phase, but not contiguous — no merge.
		busyWindow(0, 900, barrier, 0),
	}
	phases := Timeline(ws)
	want := []Phase{
		{Start: 0, End: 2048, Label: LabelDramSaturated, Windows: 2},
		{Start: 2048, End: 3072, Label: LabelIdle, Windows: 1},
		{Start: 3072, End: 4000, Label: LabelBarrierBound, Windows: 1},
		{Start: 0, End: 900, Label: LabelBarrierBound, Windows: 1},
	}
	if len(phases) != len(want) {
		t.Fatalf("got %d phases %+v, want %d", len(phases), phases, len(want))
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phase %d: got %+v want %+v", i, phases[i], want[i])
		}
	}
}

func TestReadWindows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "telem.jsonl")
	body := `{"start":0,"end":1024,"roles":{"mimd":{"issued":10,"frame":0,"inet":0,"backpressure":0,"other":2,"instrs":10}},"dram":{"reads":1,"writes":0,"busy":4}}

{"start":1024,"end":2048,"final":true,"roles":{},"links_resp":{"3>4":99}}
`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	ws, _, err := ReadWindowsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2 (blank lines skipped)", len(ws))
	}
	if ws[0].Roles["mimd"].Issued != 10 || ws[0].Dram.Busy != 4 {
		t.Fatalf("window 0 misparsed: %+v", ws[0])
	}
	if !ws[1].Final || ws[1].LinksResp["3>4"] != 99 {
		t.Fatalf("window 1 misparsed: %+v", ws[1])
	}
}
