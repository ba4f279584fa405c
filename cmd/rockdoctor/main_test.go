package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rockcress/internal/golden"
)

// rockdoctorBin is the binary under test; artifacts holds what it reads, all
// left by rocksim on mvt tiny: v4.json / v4.jsonl / v4.trace.json from one
// V4 run sampled every 256 cycles, nv.json from an NV run. Both are built,
// and the runs made, once by TestMain.
var rockdoctorBin, artifacts string

func TestMain(m *testing.M) {
	os.Exit(run(m))
}

func run(m *testing.M) int {
	dir, err := os.MkdirTemp("", "rockdoctor-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	rockdoctorBin, artifacts = filepath.Join(dir, "rockdoctor"), dir
	rocksimBin := filepath.Join(dir, "rocksim")
	for bin, pkg := range map[string]string{rockdoctorBin: ".", rocksimBin: "../rocksim"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "go build %s: %v\n%s", pkg, err, out)
			return 1
		}
	}
	in := func(name string) string { return filepath.Join(dir, name) }
	for _, args := range [][]string{
		{"-config", "V4", "-report", in("v4.json"), "-telemetry", in("v4.jsonl"), "-sample", "256", "-trace", in("v4.trace.json")},
		{"-config", "NV", "-report", in("nv.json")},
	} {
		args = append([]string{"-bench", "mvt", "-scale", "tiny"}, args...)
		if out, err := exec.Command(rocksimBin, args...).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "rocksim %v: %v\n%s", args, err, out)
			return 1
		}
	}
	return m.Run()
}

// doctor runs one rockdoctor command over the named artifacts and returns
// its stdout, stderr and exit status.
func doctor(t *testing.T, cmd string, files ...string) (stdout, stderr string, exit int) {
	t.Helper()
	args := []string{cmd}
	for _, f := range files {
		args = append(args, filepath.Join(artifacts, f))
	}
	c := exec.Command(rockdoctorBin, args...)
	var out, errb bytes.Buffer
	c.Stdout, c.Stderr = &out, &errb
	if err := c.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("rockdoctor %v: %v", args, err)
		}
		exit = ee.ExitCode()
	}
	return out.String(), errb.String(), exit
}

// TestGoldens holds the stdout of every artifact-reading command that needs
// no live process to a golden, less the two lines that carry host wall time.
func TestGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden, cmd string
		files       []string
	}{
		{"explain_v4", "explain", []string{"v4.json"}},
		{"diff_v4_v4", "diff", []string{"v4.json", "v4.json"}},
		{"diff_v4_nv", "diff", []string{"v4.json", "nv.json"}},
		{"timeline_v4", "timeline", []string{"v4.jsonl"}},
		{"trace_v4", "trace", []string{"v4.trace.json"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			stdout, stderr, exit := doctor(t, tc.cmd, tc.files...)
			if exit != 0 {
				t.Fatalf("exit status %d\nstderr:\n%s", exit, stderr)
			}
			var got strings.Builder
			for _, line := range strings.SplitAfter(stdout, "\n") {
				if !strings.HasPrefix(line, "host perf:") && !strings.Contains(line, "sim_mips") {
					got.WriteString(line)
				}
			}
			golden.Check(t, filepath.Join("testdata", tc.golden+".golden.txt"), []byte(got.String()))
		})
	}
}

// TestUnknownCommand: a subcommand rockdoctor does not have is a usage
// error, exit status 2, with nothing on stdout.
func TestUnknownCommand(t *testing.T) {
	stdout, stderr, exit := doctor(t, "autopsy")
	if exit != 2 || stdout != "" {
		t.Errorf("exit status %d, stdout %q; want 2 and nothing", exit, stdout)
	}
	if !strings.HasPrefix(stderr, "rockdoctor: unknown command \"autopsy\"\n") {
		t.Errorf("stderr does not name the command:\n%s", stderr)
	}
}

// TestWrongSchema: a report of a schema this build does not read fails with
// one line saying so, not a zero-valued explanation.
func TestWrongSchema(t *testing.T) {
	if err := os.WriteFile(filepath.Join(artifacts, "future.json"), []byte(`{"schema": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cmd := range [][]string{{"explain", "future.json"}, {"diff", "v4.json", "future.json"}} {
		stdout, stderr, exit := doctor(t, cmd[0], cmd[1:]...)
		if exit == 0 || stdout != "" {
			t.Errorf("%v: exit status %d, stdout %q; want a failure and nothing", cmd, exit, stdout)
		}
		if strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "rockdoctor: ") || !strings.Contains(stderr, "schema 99") {
			t.Errorf("%v: want one \"rockdoctor: ... schema 99 ...\" line on stderr, got:\n%s", cmd, stderr)
		}
	}
}

// TestWatchJournal: watch reads a sweep's journal as -resume does. The
// fixture holds two finished cells, one failed cell and the torn last line
// of an append a kill cut short, which is not a cell yet.
func TestWatchJournal(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "sweep.journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(artifacts, "sweep.jsonl"), fixture, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, exit := doctor(t, "watch", "sweep.jsonl")
	if exit != 0 {
		t.Fatalf("exit status %d\nstderr:\n%s", exit, stderr)
	}
	if want := "2 cells done, 1 failed, last gemm|NV||0\n"; stdout != want {
		t.Errorf("stdout %q, want %q", stdout, want)
	}
}
