package harness

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"rockcress/internal/analyze"
	"rockcress/internal/config"
	"rockcress/internal/kernels"
)

func tinyRunner(t *testing.T, reportDir string) *Runner {
	t.Helper()
	return New(Options{Scale: kernels.Tiny, Out: io.Discard, ReportDir: reportDir})
}

// TestBaselineRoundTrip records a baseline and immediately gates against
// it: a deterministic simulator must match itself bit for bit. Restricting
// WriteBaseline's sweep is not possible (it always covers the full kernel
// set — that is the point of the committed file), so this uses the real
// sweep at tiny scale.
func TestBaselineRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full tiny-scale baseline sweep twice")
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	r := tinyRunner(t, "")
	if err := r.WriteBaseline(path); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	wantRuns := len(kernels.PolyBench()) * len(BaselineConfigs)
	if len(b.Runs) != wantRuns {
		t.Fatalf("baseline has %d runs, want %d", len(b.Runs), wantRuns)
	}
	var out bytes.Buffer
	// Same runner: every run is cached, so the check is instant and must
	// pass — it is literally comparing a result to itself through the
	// serialized baseline.
	if err := r.Check(b, &out); err != nil {
		t.Fatalf("self-check failed: %v\n%s", err, out.String())
	}
}

// TestCheckDetectsDrift tampers one baseline entry and expects the gate to
// fail that run, print diff attribution, and keep checking the rest.
func TestCheckDetectsDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the tiny-scale baseline sweep")
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	r := tinyRunner(t, "")
	if err := r.WriteBaseline(path); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	rep := b.Runs[baselineKey("gemm", "V4")]
	if rep == nil {
		t.Fatal("baseline missing gemm/V4")
	}
	rep.Cycles += 500
	rc := rep.Roles["expander"]
	rc.Frame += 500 * int64(rep.RolePop["expander"])
	rep.Roles["expander"] = rc

	var out bytes.Buffer
	err = r.Check(b, &out)
	if err == nil || !strings.Contains(err.Error(), "1 of") {
		t.Fatalf("want one drifted run, got err=%v", err)
	}
	text := out.String()
	if !strings.Contains(text, "FAIL gemm/V4") {
		t.Fatalf("missing FAIL line:\n%s", text)
	}
	if !strings.Contains(text, "attribution (per expander core, cycles):") ||
		!strings.Contains(text, "frame") {
		t.Fatalf("missing diff attribution:\n%s", text)
	}
	if !strings.Contains(text, "ok   mvt/V4") {
		t.Fatalf("check did not continue past the failure:\n%s", text)
	}
}

// TestCheckRejectsWrongScale pins the scale guard: gating tiny counts
// against a small-scale runner would compare different inputs.
func TestCheckRejectsWrongScale(t *testing.T) {
	b := &Baseline{Schema: analyze.SchemaVersion, Scale: "small",
		Runs: map[string]*analyze.Report{"gemm/V4": {Schema: analyze.SchemaVersion}}}
	err := tinyRunner(t, "").Check(b, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "scale") {
		t.Fatalf("want scale mismatch error, got %v", err)
	}
}

// TestCheckRejectsIncompleteBaseline pins the sweep-coverage guard: a
// baseline with entries removed must fail the gate rather than silently
// checking fewer runs.
func TestCheckRejectsIncompleteBaseline(t *testing.T) {
	b := &Baseline{Schema: analyze.SchemaVersion, Scale: "tiny",
		Runs: map[string]*analyze.Report{"gemm/V4": {Schema: analyze.SchemaVersion}}}
	err := tinyRunner(t, "").Check(b, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "missing") ||
		!strings.Contains(err.Error(), "mvt/V16") {
		t.Fatalf("want missing-runs error naming absent entries, got %v", err)
	}
}

// TestTelemetryAndReportsDoNotChangeCycles is the do-no-harm guarantee:
// attaching report emission and telemetry to a run must leave its cycle
// count bit-identical to a bare run.
func TestTelemetryAndReportsDoNotChangeCycles(t *testing.T) {
	bench, err := kernels.Get("gemm")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := config.Preset("V4")
	if err != nil {
		t.Fatal(err)
	}
	bare, err := kernels.ExecuteOpts(bench, bench.Defaults(kernels.Tiny), sw, config.ManycoreDefault(), kernels.ExecOpts{MaxCycles: kernels.DefaultMaxCycles})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r := New(Options{Scale: kernels.Tiny, Out: io.Discard,
		TelemetryDir: filepath.Join(dir, "telem"), ReportDir: filepath.Join(dir, "reports")})
	res, err := r.Run(bench, sw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles() != bare.Cycles() {
		t.Fatalf("cycles changed with observability attached: %d vs %d", res.Cycles(), bare.Cycles())
	}
	rep, err := analyze.ReadReport(filepath.Join(dir, "reports", "gemm_V4__0.report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cycles != bare.Cycles() || rep.Bench != "gemm" || rep.Config != "V4" {
		t.Fatalf("report does not match the run: %+v", rep.Meta)
	}
}
