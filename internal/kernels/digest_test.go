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

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// programDigest builds one program at p the way trial.build does and
// returns its instruction count and the first 16 hex digits of the SHA-256
// of its disassembly, or the error that stopped the build.
func programDigest(b Benchmark, sw config.Software, p Params, avoid []int, ckpt bool) (instrs int, sum string, err error) {
	img, err := b.Prepare(p)
	if err != nil {
		return 0, "", err
	}
	hw := sw.Apply(config.ManycoreDefault())
	groups, ctxAvoid, err := degradedLayout(sw, hw, avoid, false)
	if err != nil {
		return 0, "", err
	}
	ctx := NewCtx(p, img, sw, hw, groups)
	ctx.Avoid, ctx.Ckpt = ctxAvoid, ckpt
	if err := b.Build(ctx); err != nil {
		return 0, "", err
	}
	prog, err := ctx.B.Build()
	if err != nil {
		return 0, "", err
	}
	h := sha256.Sum256([]byte(asm.Disassemble(prog)))
	return len(prog.Code), fmt.Sprintf("%x", h[:8]), nil
}

// offsizes gives the stencil and statistics kernels one valid size each
// that no scale uses, so their lowerings are pinned beyond the sizes the
// defaults happen to pick (chunk counts, block counts and the 3-D row map
// all change with the size).
var offsizes = map[string]Params{
	"2dconv":  {N: 34, M: 30, Seed: 3},
	"3dconv":  {N: 14, M: 16, Seed: 31},
	"fdtd-2d": {N: 33, M: 48, TMax: 1, Seed: 41},
	"corr":    {N: 32, M: 48, Seed: 37},
	"covar":   {N: 32, M: 48, Seed: 37},
}

// knownRefusals lists the builds TestProgramDigests expects to fail, keyed
// bench/config/mode (a plain row covers both scales), with a fragment of
// the error each must fail with and the reason it fails.
var knownRefusals = map[string]struct{ err, reason string }{
	"gramschm/PCV_PF/plain":     {"no SIMD mapping", "column strides defeat wide loads (§6.2)"},
	"gramschm/V4_PCV/plain":     {"no SIMD mapping", "column strides defeat wide loads (§6.2)"},
	"gramschm/V16_PCV/plain":    {"no SIMD mapping", "column strides defeat wide loads (§6.2)"},
	"gramschm/V4_LL_PCV/plain":  {"no SIMD mapping", "column strides defeat wide loads (§6.2)"},
	"gramschm/V16_LL_PCV/plain": {"no SIMD mapping", "column strides defeat wide loads (§6.2)"},
	"bfs/V4/ckpt":               {"out of integer registers", "checkpoint sites overflow bfs's vector register budget (ROADMAP item 4)"},
	"bfs/V16/ckpt":              {"out of integer registers", "checkpoint sites overflow bfs's vector register budget (ROADMAP item 4)"},
	"bfs/V4/avoid12":            {"do not divide over 44 lanes", "a layout without tile 12 leaves 44 lanes for 192 padded vertices (ROADMAP item 4)"},
}

// TestProgramDigests pins every program the kernels emit: each registered
// kernel x Table 3 row that builds, at Tiny and Small, plus the two build
// modes -dump-asm cannot reach (checkpoint sites, and a layout degraded
// around dead tile 12) at Tiny, plus every Table 3 row at the kernel's
// offsizes entry (mode offsize, the size in the scale column). One line per program in
// testdata/programs.golden.txt; a kernel refactor must leave that file's
// diff empty (go test -run TestProgramDigests -update rewrites it). A
// build that fails must be one of knownRefusals, failing as that row says.
func TestProgramDigests(t *testing.T) {
	const golden = "testdata/programs.golden.txt"
	var out bytes.Buffer
	refused := map[string]bool{}
	line := func(b Benchmark, sw config.Software, size string, p Params, mode string, avoid []int, ckpt bool) {
		n, sum, err := programDigest(b, sw, p, avoid, ckpt)
		if err == nil {
			fmt.Fprintf(&out, "%s/%s/%s/%s %d %s\n", b.Info().Name, sw.Name, size, mode, n, sum)
			return
		}
		key := b.Info().Name + "/" + sw.Name + "/" + mode
		if known, ok := knownRefusals[key]; !ok || !strings.Contains(err.Error(), known.err) {
			t.Errorf("%s/%s/%s/%s: build failed: %v", b.Info().Name, sw.Name, size, mode, err)
		}
		refused[key] = true
	}
	for _, b := range All() {
		tiny := b.Defaults(Tiny)
		for _, sw := range config.Presets() {
			line(b, sw, "tiny", tiny, "plain", nil, false)
			line(b, sw, "small", b.Defaults(Small), "plain", nil, false)
		}
		for _, name := range []string{"NV", "NV_PF", "V4", "V16"} {
			sw, err := config.Preset(name)
			if err != nil {
				t.Fatal(err)
			}
			line(b, sw, "tiny", tiny, "ckpt", nil, true)
			line(b, sw, "tiny", tiny, "avoid12", []int{12}, false)
		}
		if p, ok := offsizes[b.Info().Name]; ok {
			size := fmt.Sprintf("%dx%d", p.N, p.M)
			for _, sw := range config.Presets() {
				line(b, sw, size, p, "offsize", nil, false)
			}
		}
	}
	for key, known := range knownRefusals {
		if !refused[key] {
			t.Errorf("%s builds now, though listed as refused (%s): drop its row", key, known.reason)
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

// TestOffsizesMatchReference runs each offsizes entry on the manycore under
// NV, NV_PF, V4 and V16 and holds the result to the serial reference
// (Image.Check, inside the run path): the sizes the digests pin must also
// compute the right answer.
func TestOffsizesMatchReference(t *testing.T) {
	for name, p := range offsizes {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []string{"NV", "NV_PF", "V4", "V16"} {
			sw, err := config.Preset(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ExecuteOpts(b, p, sw, config.ManycoreDefault(), ExecOpts{MaxCycles: 30_000_000}); err != nil {
				t.Errorf("%s/%s at %dx%d: %v", name, cfg, p.N, p.M, err)
			}
		}
	}
}
