package analyze

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/golden"
	"rockcress/internal/stats"
)

// sampleStats builds a small deterministic stats.Machine: one vector group
// (scalar 0, expander 1, lanes 2-3) plus MIMD cores 4-5, two LLC banks.
func sampleStats() (*stats.Machine, []*config.Group) {
	st := stats.New(6, 2)
	st.Cycles = 10000
	fill := func(i int, issued, frame, inet, bp, other, instrs int64) {
		c := &st.Cores[i]
		c.AddStallN(stats.StallNone, issued)
		c.AddStallN(stats.StallFrame, frame)
		c.AddStallN(stats.StallInet, inet)
		c.AddStallN(stats.StallBackpressure, bp)
		c.AddStallN(stats.StallOther, other)
		c.Instrs = instrs
	}
	fill(0, 2000, 0, 0, 4000, 4000, 2000) // scalar
	fill(1, 3000, 4000, 1000, 500, 1500, 3000)
	fill(2, 4000, 500, 3000, 0, 2500, 4000)
	fill(3, 4000, 500, 3000, 0, 2500, 4000)
	fill(4, 5000, 2000, 0, 0, 3000, 5000)
	fill(5, 5000, 2500, 0, 0, 2500, 5000)
	st.Cores[1].FramesConsumed = 128
	st.Cores[1].FramePoisons = 2
	st.Cores[1].FrameReplays = 2

	st.LLCs[0] = stats.LLC{Accesses: 600, Misses: 120, WideReqs: 300, RespWords: 4800, Writebacks: 10, StoreHits: 40, StoreMisses: 5}
	st.LLCs[1] = stats.LLC{Accesses: 400, Misses: 80, WideReqs: 200, RespWords: 3200, Writebacks: 6, StoreHits: 30, StoreMisses: 3}
	st.DramReads = 200
	st.DramWrites = 16
	st.DramBusy = 5800
	st.NocReqFlits = 1000
	st.NocReqHops = 5000
	st.NocRespFlits = 3000
	st.NocRespHops = 15000
	st.NocFlits = 4000
	st.NocHops = 20000
	st.NocReqHotHops = 900
	st.NocRespHotHops = 2400
	st.RemoteStores = 64
	st.FastForwards = 3
	st.SkippedCycles = 450
	st.Checkpoints = 1
	st.SpadFlipsFrame = 2

	groups := []*config.Group{{Scalar: 0, Expander: 1, Lanes: []int{2, 3}}}
	return st, groups
}

func sampleReport() *Report {
	st, groups := sampleStats()
	return New(Meta{Bench: "gemm", Config: "V4", Scale: "tiny"},
		st, groups, config.ManycoreDefault())
}

// TestReportGolden pins the serialized report.json byte-for-byte. A
// mismatch means a field was renamed, retyped, reordered, or added — bump
// SchemaVersion and re-record (golden.Env) if the change is intentional.
func TestReportGolden(t *testing.T) {
	r := sampleReport()
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "golden_report.json"), buf.Bytes())
}

// TestReportRoundTrip writes a report to disk and reads it back through
// the validating reader, checking the fields the tools actually consume.
func TestReportRoundTrip(t *testing.T) {
	r := sampleReport()
	path := filepath.Join(t.TempDir(), "report.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != r.Cycles || got.Instrs != r.Instrs {
		t.Fatalf("cycles/instrs: got %d/%d want %d/%d", got.Cycles, got.Instrs, r.Cycles, r.Instrs)
	}
	if got.PacingRole() != "expander" {
		t.Fatalf("pacing role %q, want expander", got.PacingRole())
	}
	if got.Roles["expander"] != r.Roles["expander"] {
		t.Fatalf("expander counters: got %+v want %+v", got.Roles["expander"], r.Roles["expander"])
	}
	if got.RolePop["lane"] != 2 || got.RolePop["mimd"] != 2 {
		t.Fatalf("role populations: %+v", got.RolePop)
	}
	if got.Noc.HotRespHops != 2400 || got.Noc.HotLinkBusyFrac != 0.24 {
		t.Fatalf("hot link: %+v", got.Noc)
	}
	if got.Bottleneck.Label != r.Bottleneck.Label {
		t.Fatalf("verdict changed over round trip: %q vs %q", got.Bottleneck.Label, r.Bottleneck.Label)
	}
}

// TestReadReportRejectsSchema checks the version gate.
func TestReadReportRejectsSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, []byte(`{"schema": 999, "bench": "gemm"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadReport(path)
	if err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}
