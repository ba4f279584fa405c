// Package golden holds a test's output to a pinned file; only tests import
// it. `ROCKCRESS_UPDATE=1 go test ./...` re-records every pinned file: an
// environment variable reaches every package, where a test flag fails each
// package that does not declare it.
package golden

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// Env names the switch.
const Env = "ROCKCRESS_UPDATE"

// Check holds got to the file at path byte for byte, failing the test with
// the first differing line (number, wanted and actual text) and the count
// of differing lines. With Env set it rewrites the file instead.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if os.Getenv(Env) != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("%v (%s=1 go test re-records it)", err, Env)
		return
	}
	wl, gl := lines(want), lines(got)
	var diff []int
	for i := range max(len(wl), len(gl)) {
		if i >= len(wl) || i >= len(gl) || wl[i] != gl[i] {
			diff = append(diff, i)
		}
	}
	if len(diff) == 0 {
		return
	}
	i := diff[0]
	at := func(l []string) string {
		if i < len(l) {
			return fmt.Sprintf("%q", l[i])
		}
		return "(end of file)"
	}
	t.Errorf("%s:%d: first of %d differing lines (%s=1 go test re-records the file)\nwant %s\n got %s",
		path, i+1, len(diff), Env, at(wl), at(gl))
}

// lines splits b after each newline; a final newline opens no empty line.
func lines(b []byte) []string {
	l := strings.SplitAfter(string(b), "\n")
	if l[len(l)-1] == "" {
		l = l[:len(l)-1]
	}
	return l
}
