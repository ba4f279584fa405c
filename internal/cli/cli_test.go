package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"rockcress/internal/golden"
)

// TestEveryFieldHasARow: every command's rows bind (a misspelt field or a
// mistyped default panics, and so does a name declared twice for one
// command), and every Options field is set by some row — the struct holds
// nothing the table does not fill.
func TestEveryFieldHasARow(t *testing.T) {
	for _, p := range []Prog{Rocksim, Rockbench, Rockasm, Rockdoctor} {
		declare(flag.NewFlagSet(p.String(), flag.ContinueOnError), p, &Options{})
	}
	set := map[string]bool{}
	for _, f := range Flags {
		set[f.Field] = true
	}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !set[name] {
			t.Errorf("Options.%s is set by no row of Flags", name)
		}
	}
}

// TestHelpGolden pins each command's flag list as -h prints it. -j's
// default is the host's GOMAXPROCS, so it is spelled out.
func TestHelpGolden(t *testing.T) {
	var b bytes.Buffer
	for _, p := range []Prog{Rocksim, Rockbench, Rockasm} {
		fmt.Fprintf(&b, "== %s\n", p)
		fs := flag.NewFlagSet(p.String(), flag.ContinueOnError)
		fs.SetOutput(&b)
		declare(fs, p, &Options{})
		fs.PrintDefaults()
	}
	got := regexp.MustCompile(`(?m)^(\s+parallel simulations.*) \(default \d+\)$`).
		ReplaceAll(b.Bytes(), []byte("$1 (default GOMAXPROCS)"))
	golden.Check(t, "testdata/help.golden.txt", got)
}

// TestReadmeFlagTable: README's flag table is the option table — the same
// flags, each ticked for exactly the commands that declare it.
func TestReadmeFlagTable(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	cols := []Prog{Rocksim, Rockbench, Rockasm}
	row := regexp.MustCompile("^\\| `-([a-z-]+)[^`]*` \\|([^|]*)\\|([^|]*)\\|([^|]*)\\|")
	got := map[string]Prog{}
	for _, line := range strings.Split(string(raw), "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		if _, dup := got[m[1]]; dup {
			t.Errorf("README lists -%s twice", m[1])
		}
		var p Prog
		for i, c := range cols {
			if strings.TrimSpace(m[2+i]) == "✓" {
				p |= c
			}
		}
		got[m[1]] = p
	}
	want := map[string]Prog{}
	for _, f := range Flags {
		want[f.Name] |= f.Progs
	}
	for name, p := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("README's flag table lacks -%s", name)
		} else if g != p {
			t.Errorf("README ticks -%s for %s, the table declares it for %s", name, progList(g), progList(p))
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("README lists -%s, which no command declares", name)
		}
	}
}

func progList(p Prog) string {
	var names []string
	for _, c := range []Prog{Rocksim, Rockbench, Rockasm} {
		if p&c != 0 {
			names = append(names, c.String())
		}
	}
	return strings.Join(names, "+")
}

// TestExitPath: the status of each way a command ends, and that every
// closer runs, last registered first, whether the command failed or not.
func TestExitPath(t *testing.T) {
	defer func(u func()) { flag.Usage = u }(flag.Usage)
	flag.Usage = func() {}
	for _, c := range []struct {
		err    error
		status int
		stderr string
	}{
		{nil, 0, ""},
		{errors.New("boom"), 1, "rocksim: boom\n"},
		{fmt.Errorf("run: %w", context.Canceled), 130, "rocksim: run: context canceled\n"},
		{UsageError(""), 2, ""},
		{UsageError("-in is required"), 2, "rocksim: -in is required\n"},
	} {
		var stderr bytes.Buffer
		var order []int
		s := &Session{prog: Rocksim, stderr: &stderr}
		s.OnExit(func(error) error { order = append(order, 1); return nil })
		s.OnExit(func(error) error { order = append(order, 2); return nil })
		if got := s.exit(c.err); got != c.status || stderr.String() != c.stderr {
			t.Errorf("exit(%v) = %d with stderr %q, want %d and %q", c.err, got, stderr.String(), c.status, c.stderr)
		}
		if !slices.Equal(order, []int{2, 1}) {
			t.Errorf("exit(%v) ran closers in order %v, want [2 1]", c.err, order)
		}
	}

	// A closer that fails fails the command.
	var stderr bytes.Buffer
	s := &Session{prog: Rockbench, stderr: &stderr}
	s.OnExit(func(error) error { return errors.New("journal: disk full") })
	if got := s.exit(nil); got != 1 || stderr.String() != "rockbench: journal: disk full\n" {
		t.Errorf("failing closer: exit %d, stderr %q", got, stderr.String())
	}
}
