package kernels

import (
	"fmt"
	"sort"

	"rockcress/internal/config"
	"rockcress/internal/gpu"
)

// Scale selects input sizes: Tiny for unit tests, Small for quick sweeps,
// Full for the figure-regeneration runs (still scaled well below the
// paper's gem5 inputs; see EXPERIMENTS.md).
type Scale int

const (
	Tiny Scale = iota
	Small
	Full
)

func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Full:
		return "full"
	}
	return fmt.Sprintf("scale(%d)", int(s))
}

// ParseScale maps a scale name back to its Scale. The CLIs and the
// perf-baseline gate share it so the accepted names stay in one place.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "full":
		return Full, nil
	}
	return 0, fmt.Errorf("unknown scale %q (tiny, small, full)", s)
}

// Params sizes one benchmark run. Benchmarks interpret the fields they use.
type Params struct {
	N, M, K int // primary dimensions
	TMax    int // time steps (fdtd-2d)
	Seed    int64
}

// Info is a Table 2 row.
type Info struct {
	Name        string
	InputDesc   string
	Description string
	AlgOpt      string
	MemOpt      string
	Kernels     int
}

// Benchmark is one evaluation workload.
type Benchmark interface {
	// Info returns the benchmark's Table 2 metadata.
	Info() Info
	// Defaults returns the input parameters at a scale.
	Defaults(s Scale) Params
	// Prepare builds the input image and its serial reference outputs.
	Prepare(p Params) (*Image, error)
	// Build emits the manycore program for ctx.SW into ctx.B.
	Build(ctx *Ctx) error
	// GPU returns the benchmark's GPU launches, run back to back.
	GPU(p Params, img *Image) ([]gpu.Kernel, error)
}

var registry []Benchmark

func register(b Benchmark) { registry = append(registry, b) }

// All returns every registered benchmark sorted by name. The PolyBench
// suite is first (Table 2 order is alphabetical anyway); bfs sorts in too.
func All() []Benchmark {
	out := append([]Benchmark(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Info().Name < out[j].Info().Name })
	return out
}

// PolyBench returns the 15 Table 2 benchmarks (everything except bfs).
func PolyBench() []Benchmark {
	var out []Benchmark
	for _, b := range All() {
		if b.Info().Name != "bfs" {
			out = append(out, b)
		}
	}
	return out
}

// Get looks a benchmark up by name.
func Get(name string) (Benchmark, error) {
	for _, b := range registry {
		if b.Info().Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("kernels: unknown benchmark %q", name)
}

// SupportsSIMD reports whether the benchmark's inner loops vectorize onto
// the per-core SIMD units. The paper notes gramschm is the one benchmark
// that cannot use the SIMD extensions (§6.2); bfs is irregular.
func SupportsSIMD(name string) bool { return name != "gramschm" && name != "bfs" }

// GroupsFor builds the group layout a Software row implies (nil for the
// MIMD styles). A vector row on a fabric too small for one complete group
// is an error: only a fabric that lost tiles falls back to MIMD.
func GroupsFor(sw config.Software, hw config.Manycore) ([]*config.Group, error) {
	if sw.Style != config.StyleVector {
		return nil, nil
	}
	groups, err := config.MakeGroups(hw, sw.VLen)
	if err == nil && len(groups) == 0 {
		err = fmt.Errorf("no complete %s group fits a %dx%d fabric", sw.Name, hw.MeshWidth, hw.MeshHeight)
	}
	return groups, err
}
