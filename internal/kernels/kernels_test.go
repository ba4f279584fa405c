package kernels

import (
	"strings"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/isa"
)

// testConfigs are the Table 3 rows exercised on every benchmark at Tiny
// scale: every mapping mechanism (blocking loads, self-prefetch, SIMD,
// vector groups at both lengths, long lines) gets correctness coverage.
var testConfigs = []string{"NV", "NV_PF", "PCV_PF", "V4", "V16", "V4_PCV", "V16_PCV", "V4_LL_PCV", "V16_LL", "V16_LL_PCV"}

func runTiny(t *testing.T, name, cfgName string) *Result {
	t.Helper()
	bench, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := config.Preset(cfgName)
	if err != nil {
		t.Fatal(err)
	}
	if sw.SIMD && !SupportsSIMD(name) {
		t.Skipf("%s does not support SIMD", name)
	}
	res, err := ExecuteOpts(bench, bench.Defaults(Tiny), sw, config.ManycoreDefault(), ExecOpts{MaxCycles: 30_000_000})
	if err != nil {
		t.Fatalf("%s/%s: %v", name, cfgName, err)
	}
	return res
}

// testBenchAllConfigs is shared by the per-benchmark test files.
func testBenchAllConfigs(t *testing.T, name string) {
	for _, cfgName := range testConfigs {
		cfgName := cfgName
		t.Run(cfgName, func(t *testing.T) {
			res := runTiny(t, name, cfgName)
			if res.Stats.Cycles <= 0 {
				t.Fatal("no cycles")
			}
		})
	}
	t.Run("GPU", func(t *testing.T) {
		bench, _ := Get(name)
		if ks, err := bench.GPU(bench.Defaults(Tiny), mustPrepare(t, bench)); err != nil || len(ks) == 0 {
			t.Skipf("no GPU kernel: %v", err)
		}
		res, err := ExecuteOpts(bench, bench.Defaults(Tiny), GPUSoftware(), config.ManycoreDefault(), ExecOpts{MaxCycles: 30_000_000})
		if err != nil {
			t.Fatalf("GPU: %v", err)
		}
		if res.GPU == nil || res.GPU.Cycles <= 0 {
			t.Fatal("no GPU cycles")
		}
	})
}

func mustPrepare(t *testing.T, b Benchmark) *Image {
	t.Helper()
	img, err := b.Prepare(b.Defaults(Tiny))
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestGemm(t *testing.T) { testBenchAllConfigs(t, "gemm") }

func TestMvt(t *testing.T) { testBenchAllConfigs(t, "mvt") }

func TestConv2d(t *testing.T) { testBenchAllConfigs(t, "2dconv") }

func Test2mm(t *testing.T)   { testBenchAllConfigs(t, "2mm") }
func Test3mm(t *testing.T)   { testBenchAllConfigs(t, "3mm") }
func TestSyrk(t *testing.T)  { testBenchAllConfigs(t, "syrk") }
func TestSyr2k(t *testing.T) { testBenchAllConfigs(t, "syr2k") }

func TestBicg(t *testing.T)    { testBenchAllConfigs(t, "bicg") }
func TestAtax(t *testing.T)    { testBenchAllConfigs(t, "atax") }
func TestGesummv(t *testing.T) { testBenchAllConfigs(t, "gesummv") }

func TestConv3d(t *testing.T) { testBenchAllConfigs(t, "3dconv") }
func TestCorr(t *testing.T)   { testBenchAllConfigs(t, "corr") }
func TestCovar(t *testing.T)  { testBenchAllConfigs(t, "covar") }

func TestFdtd2d(t *testing.T) { testBenchAllConfigs(t, "fdtd-2d") }

func TestGramschm(t *testing.T) { testBenchAllConfigs(t, "gramschm") }

func TestBfs(t *testing.T) { testBenchAllConfigs(t, "bfs") }

// TestBuildErrorsNameTheCause: a layout the kernel cannot tile and a pipeline
// emitted before its frames exist fail the build with the reason, not with a
// validator complaint about an instruction nobody wrote.
func TestBuildErrorsNameTheCause(t *testing.T) {
	bench, _ := Get("bfs")
	p := bench.Defaults(Tiny)
	sw, _ := config.Preset("V4")
	hw := config.ManycoreDefault()
	groups, err := GroupsFor(sw, hw)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(p, mustPrepare(t, bench), sw, hw, groups[:11])
	if err := bench.Build(ctx); err != nil {
		t.Fatal(err)
	}
	want := "bfs: 192 padded vertices do not divide over 44 lanes"
	if _, err := ctx.B.Build(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("bfs over 11 V4 groups: %v, want %q", err, want)
	}

	ctx = NewCtx(p, NewImage(), sw, hw, groups)
	ctx.SelfDAE(4, 16, 4, func(_, _ isa.Reg) {}, func(isa.Reg) {})
	want = "SelfDAE before SetupFrames"
	if _, err := ctx.B.Build(); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("SelfDAE on a fresh Ctx: %v, want %q", err, want)
	}
}
