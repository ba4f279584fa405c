package kernels

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"rockcress/internal/asm"
	"rockcress/internal/config"
)

var update = flag.Bool("update", false, "rewrite testdata/programs.golden.txt")

// programDigest builds one program the way trial.build does and returns its
// instruction count and the first 16 hex digits of the SHA-256 of its
// disassembly; ok is false when the row has no mapping (gramschm on the SIMD
// rows) or the layout cannot carry it.
func programDigest(b Benchmark, sw config.Software, scale Scale, avoid []int, ckpt bool) (instrs int, sum string, ok bool) {
	p := b.Defaults(scale)
	img, err := b.Prepare(p)
	if err != nil {
		return 0, "", false
	}
	hw := sw.Apply(config.ManycoreDefault())
	groups, ctxAvoid, err := degradedLayout(sw, hw, avoid, false)
	if err != nil {
		return 0, "", false
	}
	ctx := NewCtx(p, img, sw, hw, groups)
	ctx.Avoid, ctx.Ckpt = ctxAvoid, ckpt
	if b.Build(ctx) != nil {
		return 0, "", false
	}
	prog, err := ctx.B.Build()
	if err != nil {
		return 0, "", false
	}
	h := sha256.Sum256([]byte(asm.Disassemble(prog)))
	return len(prog.Code), fmt.Sprintf("%x", h[:8]), true
}

// TestProgramDigests pins every program the kernels emit: each registered
// kernel x Table 3 row that builds, at Tiny and Small, plus the two build
// modes -dump-asm cannot reach (checkpoint sites, and a layout degraded
// around dead tile 12) at Tiny. One line per program in
// testdata/programs.golden.txt; a kernel refactor must leave that file's
// diff empty (go test -run TestProgramDigests -update rewrites it).
func TestProgramDigests(t *testing.T) {
	const golden = "testdata/programs.golden.txt"
	var out bytes.Buffer
	line := func(b Benchmark, sw config.Software, scale Scale, mode string, avoid []int, ckpt bool) {
		if n, sum, ok := programDigest(b, sw, scale, avoid, ckpt); ok {
			fmt.Fprintf(&out, "%s/%s/%s/%s %d %s\n", b.Info().Name, sw.Name, scale, mode, n, sum)
		}
	}
	for _, b := range All() {
		for _, sw := range config.Presets() {
			line(b, sw, Tiny, "plain", nil, false)
			line(b, sw, Small, "plain", nil, false)
		}
		for _, name := range []string{"NV", "NV_PF", "V4", "V16"} {
			sw, err := config.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			line(b, sw, Tiny, "ckpt", nil, true)
			line(b, sw, Tiny, "avoid12", []int{12}, false)
		}
	}
	got := out.Bytes()
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	wantLines := map[string]bool{}
	for _, l := range strings.Split(string(want), "\n") {
		wantLines[l] = true
	}
	for _, l := range strings.Split(string(got), "\n") {
		if !wantLines[l] {
			t.Errorf("program drifted from %s: %s", golden, l)
		}
	}
	t.Errorf("%d programs built, golden holds %d (rerun with -update if intentional)",
		bytes.Count(got, []byte("\n")), bytes.Count(want, []byte("\n")))
}
