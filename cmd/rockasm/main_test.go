package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rockcress/internal/asm"
	"rockcress/internal/isa"
)

// rockasmBin is the binary under test, built once by TestMain.
var rockasmBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "rockasm-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rockasmBin = filepath.Join(dir, "rockasm")
	if out, err := exec.Command("go", "build", "-o", rockasmBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestDisRoundTripsEveryOp: testdata/all_ops.s uses every op in isa.Ops, and
// what `rockasm -dis` prints for it reassembles to the identical program —
// instructions and labels.
func TestDisRoundTripsEveryOp(t *testing.T) {
	const path = "testdata/all_ops.s"
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := asm.Assemble(path, string(src))
	if err != nil {
		t.Fatal(err)
	}
	used := map[isa.Op]bool{}
	for _, in := range want.Code {
		used[in.Op] = true
	}
	for op := 1; op < len(isa.Ops); op++ {
		if !used[isa.Op(op)] {
			t.Errorf("%s does not use %s", path, isa.Op(op))
		}
	}

	cmd := exec.Command(rockasmBin, "-in", path, "-dis")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("rockasm: %v\n%s", err, stderr.String())
	}
	summary, text, _ := strings.Cut(string(out), "\n")
	if wantSummary := fmt.Sprintf("%s: %d instructions, %d labels", path, len(want.Code), len(want.Labels)); summary != wantSummary {
		t.Errorf("summary line %q, want %q", summary, wantSummary)
	}
	got, err := asm.Assemble(path, text)
	if err != nil {
		t.Fatalf("reassembling the -dis output: %v\n%s", err, text)
	}
	if !reflect.DeepEqual(got.Code, want.Code) || !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Errorf("-dis output reassembles to a different program:\n%s", text)
	}
}

// TestRejectsWideImmediate: an immediate that does not fit in 32 bits exits 1
// and names the token (it used to assemble, truncated).
func TestRejectsWideImmediate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wide.s")
	if err := os.WriteFile(path, []byte("\tli x1, 0x1ffffffff\n\thalt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(rockasmBin, "-in", path).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("exit %v, want status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "0x1ffffffff") || !strings.Contains(string(out), ":1:") {
		t.Errorf("diagnostic does not name the token and line:\n%s", out)
	}
}

// TestTimeoutStopsTheRun: -run -timeout 1ns on a program that loops past the
// first watchdog checkpoint (cycle 1 024) fails through the machine's own
// check: exit status 1, not an interrupt's 130, naming the wall-clock budget
// at the checkpoint's cycle with the state dump.
func TestTimeoutStopsTheRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "loop.s")
	src := "\tli x1, 5000\nloop:\n\taddi x1, x1, -1\n\tbne x1, x0, loop\n\thalt\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(rockasmBin, "-in", path, "-run", "-timeout", "1ns").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("exit %v, want status 1\n%s", err, out)
	}
	const want = "rockasm: machine: wall-clock budget exceeded (cycle 1024)\n  core 0 "
	if !strings.Contains(string(out), want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
}
