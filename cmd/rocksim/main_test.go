package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rockcress/internal/golden"
)

// rocksimBin is the binary under test, built once by TestMain.
var rocksimBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "rocksim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rocksimBin = filepath.Join(dir, "rocksim")
	if out, err := exec.Command("go", "build", "-o", rocksimBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// counterGroups are the report.json / telemetry-window sections whose
// fields are plain counters: window deltas of each must sum to the report.
var counterGroups = []string{"roles", "frames", "llc", "dram", "noc", "engine"}

// addCounters accumulates every numeric leaf of w into sum, recursing
// through nested objects (the per-role maps).
func addCounters(sum, w map[string]any) {
	for k, v := range w {
		switch x := v.(type) {
		case float64:
			prev, _ := sum[k].(float64)
			sum[k] = prev + x
		case map[string]any:
			sub, _ := sum[k].(map[string]any)
			if sub == nil {
				sub = map[string]any{}
				sum[k] = sub
			}
			addCounters(sub, x)
		}
	}
}

// checkSums asserts every summed window counter equals the report's field
// of the same path. A path the report omits (a role with no tiles) must
// have summed to zero.
func checkSums(t *testing.T, path string, sum, report map[string]any) {
	t.Helper()
	for k, v := range sum {
		switch x := v.(type) {
		case float64:
			if want, _ := report[k].(float64); x != want {
				t.Errorf("%s.%s: windows sum to %v, report says %v", path, k, x, want)
			}
		case map[string]any:
			sub, _ := report[k].(map[string]any)
			checkSums(t, path+"."+k, x, sub)
		}
	}
}

// TestRunReportAndTelemetry drives the built binary end to end on mvt/V4
// tiny: exit status, the pinned cycle count, report.json against a golden
// (host-dependent fields dropped), and conservation between the JSONL
// telemetry windows and the report's totals.
func TestRunReportAndTelemetry(t *testing.T) {
	dir := t.TempDir()
	reportPath := filepath.Join(dir, "r.json")
	telemPath := filepath.Join(dir, "t.jsonl")
	cmd := exec.Command(rocksimBin, "-bench", "mvt", "-config", "V4", "-scale", "tiny",
		"-report", reportPath, "-telemetry", telemPath, "-sample", "256")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("rocksim: %v\nstderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(string(stdout), "cycles: 3152\n") {
		t.Errorf("stdout lacks the pinned \"cycles: 3152\":\n%s", stdout)
	}

	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var report map[string]any
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("report.json: %v", err)
	}
	for _, k := range []string{"wall_ns", "sim_mips", "build"} {
		delete(report, k)
	}
	got, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/mvt_v4_tiny_report.golden.json", append(got, '\n'))

	f, err := os.Open(telemPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum := map[string]any{}
	windows := 0
	var lastEnd float64
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var w map[string]any
		if err := json.Unmarshal(sc.Bytes(), &w); err != nil {
			t.Fatalf("telemetry window %d: %v", windows, err)
		}
		groups := map[string]any{}
		for _, g := range counterGroups {
			groups[g] = w[g]
		}
		addCounters(sum, groups)
		lastEnd, _ = w["end"].(float64)
		windows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if windows < 2 {
		t.Fatalf("want several telemetry windows at -sample 256, got %d", windows)
	}
	if lastEnd != report["cycles"] {
		t.Errorf("last window ends at %v, report cycles %v", lastEnd, report["cycles"])
	}
	checkSums(t, "report", sum, report)
}

// TestTraceBytesPinned holds the event trace of mvt/V4 tiny to the bytes
// the reflection encoder (encoding/json over map[string]any) wrote for it:
// a digest, not a 588 KB golden file. The run does not wrap the ring, so the
// document carries every label and every event.
func TestTraceBytesPinned(t *testing.T) {
	checkTraceDigest(t, 587909, "382d07de6515d925d7029ea8c3c9e4e4bbf9ddd59c438ccce5a753c54a5098f0")
}

// TestFaultTraceBytesPinned is the same contract for a fault run: a kill at
// cycle 1500 breaks a vector group and the ladder restarts from a
// checkpoint, so the trace carries fault.kill, recover.groupbreak,
// checkpoint and checkpoint.restore events across three attempts. The digest
// pins where in each serial site's sequence every event is emitted, not
// just that it is.
func TestFaultTraceBytesPinned(t *testing.T) {
	checkTraceDigest(t, 1122574, "d0788b757b8ea6a422eed4d8d3fd6a51a1612c9a7476d9887e732111e15e85ba",
		"-faults", "seed=42;kill@1500:t12")
}

// TestFaultPlanRejected: a drop window on two routers that are not mesh
// neighbours could never fire, so the run must refuse it (exit 1, naming the
// event) rather than finish as if the fault had been survived.
func TestFaultPlanRejected(t *testing.T) {
	out, err := exec.Command(rocksimBin, "-bench", "mvt", "-config", "V4", "-scale", "tiny",
		"-faults", "drop@0:0>5:p1").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 ||
		!strings.Contains(string(out), "fault: event 0 (drop@0:0>5:p1:both): routers 0 and 5 are not mesh-adjacent") {
		t.Errorf("-faults drop@0:0>5:p1: err %v, output %q; want exit 1 with a fault: message naming the event", err, out)
	}
}

// TestFaultCountsPrintedOnce: every fault count lives in the stats summary,
// so the faults: line is the fault record alone — a kill run's checkpoint
// count appears once, not again beside the dead tiles.
func TestFaultCountsPrintedOnce(t *testing.T) {
	out, err := exec.Command(rocksimBin, "-bench", "gemm", "-config", "NV", "-scale", "tiny",
		"-faults", "kill@1500:t12").Output()
	if err != nil {
		t.Fatalf("gemm NV kill: %v\n%s", err, out)
	}
	if n := strings.Count(string(out), "checkpoints"); n != 1 {
		t.Errorf("stdout names checkpoints %d times, want once:\n%s", n, out)
	}
	const want = "faults: dead=[12] brokenGroups=[] stuck=0"
	if !slices.Contains(strings.Split(string(out), "\n"), want) {
		t.Errorf("stdout lacks the line %q:\n%s", want, out)
	}
}

// TestTimeoutFailsTheRun: an expired -timeout fails the run with exit
// status 1, not an interrupt's 130, and names the wall-clock budget. A
// budget spent before the first attempt stops the ladder there; one that
// expires mid-run stops the machine at a watchdog checkpoint, with the
// cycle (named once), the state dump and a wall_budget flight bundle.
func TestTimeoutFailsTheRun(t *testing.T) {
	for _, c := range []struct {
		name   string
		args   []string
		want   []string
		bundle bool
	}{
		{"before the first attempt", []string{"-scale", "tiny", "-timeout", "1ns"},
			[]string{"rocksim: mvt/V4 attempt 1: wall-clock budget exceeded\n"}, false},
		{"at a checkpoint", []string{"-scale", "small", "-timeout", "100ms"},
			[]string{"mvt/V4 attempt 1: machine: wall-clock budget exceeded (cycle ", "\n  core 0 "}, true},
	} {
		dir := t.TempDir()
		args := append([]string{"-bench", "mvt", "-config", "V4", "-flight", dir}, c.args...)
		out, err := exec.Command(rocksimBin, args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: err %v, want exit status 1\n%s", c.name, err, out)
		}
		for _, w := range c.want {
			if !strings.Contains(string(out), w) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, w, out)
			}
		}
		if n := strings.Count(string(out), "(cycle "); n > 1 {
			t.Errorf("%s: the message names the cycle %d times, want at most once:\n%s", c.name, n, out)
		}
		bundles, _ := filepath.Glob(filepath.Join(dir, "flight-wall_budget-*.json"))
		if got := len(bundles) == 1; got != c.bundle {
			t.Errorf("%s: wall_budget bundles %v, want one: %v", c.name, bundles, c.bundle)
		}
	}
}

// partitioned is a fault plan whose run fails mid-flight: the two cuts
// isolate router 0, and the run stops with "mesh partitioned".
const partitioned = "cutlink@100:0>1;cutlink@100:0>8"

// TestFailedRunFlushesProfile: a failed run leaves a complete CPU profile
// and a truncation-marked trace, not an empty file: the one exit path
// stops the profiler and flushes the sink whatever the exit status.
func TestFailedRunFlushesProfile(t *testing.T) {
	dir := t.TempDir()
	profPath, tracePath := filepath.Join(dir, "cpu.pb.gz"), filepath.Join(dir, "trace.json")
	err := exec.Command(rocksimBin, "-bench", "mvt", "-config", "V4", "-scale", "tiny",
		"-pprof", profPath, "-trace", tracePath, "-faults", "drop@0:0>5:p1").Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("err %v, want exit status 1", err)
	}
	if prof, err := os.ReadFile(profPath); err != nil || !bytes.HasPrefix(prof, []byte{0x1f, 0x8b}) {
		t.Errorf("-pprof file is not a gzipped profile (%d bytes, %v)", len(prof), err)
	}
	if tr, err := os.ReadFile(tracePath); err != nil || !bytes.Contains(tr, []byte(`"truncated":true`)) {
		t.Errorf("-trace file is not truncation-marked (%v):\n%.200s", err, tr)
	}
}

// TestFailedRunMarksArtifacts: the trace and the telemetry are
// truncation-marked when the command fails before its run completes — in
// the run, or before any machine exists (a plan the mesh rejects) — and only
// then: a run that completed leaves them unmarked even when the command
// fails after it (here the -report write, aimed at a directory).
func TestFailedRunMarksArtifacts(t *testing.T) {
	for _, c := range []struct {
		name    string
		extra   []string
		marked  bool
		windows bool // whether a machine ran and cut telemetry windows
	}{
		{"failure after the run", []string{"-report", "."}, false, true},
		{"failed run", []string{"-faults", partitioned}, true, true},
		{"rejected plan", []string{"-faults", "drop@0:0>5:p1"}, true, false},
	} {
		dir := t.TempDir()
		tracePath, telPath := filepath.Join(dir, "trace.json"), filepath.Join(dir, "telemetry.jsonl")
		args := append([]string{"-bench", "mvt", "-config", "V4", "-scale", "tiny",
			"-trace", tracePath, "-telemetry", telPath}, c.extra...)
		cmd := exec.Command(rocksimBin, args...)
		cmd.Dir = dir
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Fatalf("%s: err %v, want exit status 1", c.name, err)
		}
		raw, err := os.ReadFile(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			OtherData struct {
				Truncated bool `json:"truncated"`
			} `json:"otherData"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: trace is not JSON: %v", c.name, err)
		}
		if doc.OtherData.Truncated != c.marked {
			t.Errorf("%s: trace truncated=%v, want %v", c.name, doc.OtherData.Truncated, c.marked)
		}
		tel, err := os.ReadFile(telPath)
		if err != nil {
			t.Fatal(err)
		}
		if !c.windows {
			if len(tel) != 0 {
				t.Errorf("%s: telemetry holds %d bytes, want none (no machine ran)", c.name, len(tel))
			}
			continue
		}
		lines := bytes.Split(bytes.TrimSpace(tel), []byte("\n"))
		var last struct {
			Final     bool `json:"final"`
			Truncated bool `json:"truncated"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
			t.Fatalf("%s: last telemetry line: %v", c.name, err)
		}
		if !last.Final || last.Truncated != c.marked {
			t.Errorf("%s: last window final=%v truncated=%v, want final and truncated=%v",
				c.name, last.Final, last.Truncated, c.marked)
		}
	}
}

// TestNoEngineWorkersFlag: one simulation ticks serially, so rocksim has no
// -j; the flag parser must reject it (exit 2) rather than run anything.
func TestNoEngineWorkersFlag(t *testing.T) {
	out, err := exec.Command(rocksimBin, "-j", "2", "-bench", "mvt", "-config", "V4", "-scale", "tiny").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
		!strings.Contains(string(out), "flag provided but not defined: -j") {
		t.Errorf("rocksim -j 2: err %v, output %q; want exit 2 naming the undefined flag", err, out)
	}
}

// checkTraceDigest runs mvt/V4 tiny with -trace (plus extra flags) and holds
// the file to a size and SHA-256.
func checkTraceDigest(t *testing.T, wantBytes int, wantSHA256 string, extra ...string) {
	t.Helper()
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	args := append([]string{"-bench", "mvt", "-config", "V4", "-scale", "tiny", "-trace", tracePath}, extra...)
	if out, err := exec.Command(rocksimBin, args...).CombinedOutput(); err != nil {
		t.Fatalf("rocksim: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); len(raw) != wantBytes || got != wantSHA256 {
		t.Errorf("trace is %d bytes with SHA-256 %s, want %d and %s", len(raw), got, wantBytes, wantSHA256)
	}
}

// TestDumpAsmGoldens pins the disassembly text: the bytes `-dump-asm` wrote
// before isa.Instr.String became a loop over the ISA table (bfs with
// same-PC labels sorted by name, which is what makes its dump stable).
func TestDumpAsmGoldens(t *testing.T) {
	for _, c := range []struct{ bench, cfg, golden string }{
		{"mvt", "V4", "testdata/mvt_v4_tiny.golden.s"},
		{"bfs", "NV", "testdata/bfs_nv_tiny.golden.s"},
	} {
		cmd := exec.Command(rocksimBin, "-bench", c.bench, "-config", c.cfg, "-scale", "tiny", "-dump-asm")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		got, err := cmd.Output()
		if err != nil {
			t.Fatalf("rocksim -dump-asm %s/%s: %v\n%s", c.bench, c.cfg, err, stderr.String())
		}
		golden.Check(t, c.golden, got)
	}
	// The GPU row has no program to dump: it must say so, not print NV's.
	out, err := exec.Command(rocksimBin, "-bench", "mvt", "-config", "GPU", "-scale", "tiny", "-dump-asm").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), "wavefront traces, not a program") {
		t.Errorf("-dump-asm -config GPU: err %v, output %q; want exit 1 naming the wavefront traces", err, out)
	}
}
