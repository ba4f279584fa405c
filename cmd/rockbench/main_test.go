package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rockcress/internal/harness"
)

var update = flag.Bool("update", false, "rewrite golden files")

// rockbenchBin is the binary under test, built once by TestMain.
var rockbenchBin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "rockbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rockbenchBin = filepath.Join(dir, "rockbench")
	if out, err := exec.Command("go", "build", "-o", rockbenchBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// stdout runs the binary and returns what it printed to stdout (tables and
// figures; progress and the host-time throughput line go to stderr).
func stdout(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(rockbenchBin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("rockbench %v: %v\nstderr:\n%s", args, err, stderr.String())
	}
	return out
}

// checkGolden holds got against testdata/name (-update rewrites it).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./cmd/rockbench -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout drifted from %s (rerun with -update if intentional); got:\n%s", golden, got)
	}
}

// TestTable3Golden pins a table that runs no simulation.
func TestTable3Golden(t *testing.T) {
	checkGolden(t, "table3.golden.txt", stdout(t, "-table", "3"))
}

// TestFig10Golden pins one figure end to end — the mvt rows of Figure 10 at
// tiny scale — and the harness's promise that stdout is identical for any
// sweep width.
func TestFig10Golden(t *testing.T) {
	args := []string{"-q", "-fig", "10", "-bench", "mvt", "-scale", "tiny"}
	serial := stdout(t, append(args, "-j", "1")...)
	checkGolden(t, "fig10_mvt_tiny.golden.txt", serial)
	if wide := stdout(t, append(args, "-j", "4")...); !bytes.Equal(serial, wide) {
		t.Errorf("-j 4 stdout differs from -j 1:\n%s\nvs\n%s", wide, serial)
	}
}

// TestUsageErrorsExitOne: an unknown figure and -resume without -journal
// are refused with exit status 1.
func TestUsageErrorsExitOne(t *testing.T) {
	for _, args := range [][]string{
		{"-q", "-fig", "nosuchfigure", "-scale", "tiny"},
		{"-q", "-fig", "10", "-scale", "tiny", "-resume"},
	} {
		err := exec.Command(rockbenchBin, args...).Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 1 {
			t.Errorf("rockbench %v: got %v, want exit status 1", args, err)
		}
	}
}

// TestFigureNamesComeFromRegistry: the -fig help text and the
// unknown-figure error each list exactly harness.Figures, in its order.
func TestFigureNamesComeFromRegistry(t *testing.T) {
	var names []string
	for _, f := range harness.Figures {
		names = append(names, f.Name)
	}
	want := strings.Join(names, ", ")
	for _, c := range []struct {
		args []string
		list *regexp.Regexp
	}{
		{[]string{"-h"}, regexp.MustCompile(`figure to regenerate: (.*)`)},
		{[]string{"-q", "-fig", "nosuchfigure", "-scale", "tiny"}, regexp.MustCompile(`unknown figure "nosuchfigure" \(have: (.*)\)`)},
	} {
		out, _ := exec.Command(rockbenchBin, c.args...).CombinedOutput()
		if m := c.list.FindSubmatch(out); m == nil || string(m[1]) != want {
			t.Errorf("rockbench %v lists figures %q, want %q; output:\n%s", c.args, m, want, out)
		}
	}
}

// TestAllIsTablesThenPaperFigures: -all prints the four tables and then
// every paper figure of the registry, in registry order, each followed by
// a blank line — byte for byte what the separate -table and -fig runs print.
func TestAllIsTablesThenPaperFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	common := []string{"-q", "-scale", "tiny", "-bench", "mvt"}
	var want []byte
	for _, name := range []string{"1a", "1b", "2", "3"} {
		want = append(append(want, stdout(t, append(common, "-table", name)...)...), '\n')
	}
	for _, f := range harness.Figures {
		if f.Paper {
			want = append(append(want, stdout(t, append(common, "-fig", f.Name)...)...), '\n')
		}
	}
	if got := stdout(t, append(common, "-all")...); !bytes.Equal(got, want) {
		t.Errorf("-all stdout is not the tables followed by each paper figure; got:\n%s\nwant:\n%s", got, want)
	}
}

// TestInterruptedSweepNamesItsJournal: a journaled sweep interrupted by
// SIGINT exits 130 and says how to resume the journal it opened.
func TestInterruptedSweepNamesItsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	cmd := exec.Command(rockbenchBin, "-q", "-fig", "10", "-scale", "small", "-j", "1", "-journal", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The journal's header is on disk before the first cell runs; the
	// sweep itself takes many seconds, so the signal lands mid-flight.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			t.Fatal("the journal never appeared")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 130 {
		t.Errorf("rockbench interrupted: %v, want exit status 130; stderr:\n%s", err, stderr.String())
	}
	if want := "rockbench: journal saved: rerun with -journal " + path + " -resume to continue\n"; !strings.HasSuffix(stderr.String(), want) {
		t.Errorf("stderr %q does not end with the resume hint %q", stderr.String(), want)
	}
}
