// Package rockcress is the public façade of the Rockcress reproduction: a
// cycle-level simulator for software-defined vector processing on manycore
// fabrics (Bedoukian et al., MICRO '21), together with the paper's
// programming model, benchmark suite, and evaluation harness.
//
// The three layers a user typically touches:
//
//   - Programs: build kernels with NewBuilder (the VECTORIZE/VECTOR_ISSUE/
//     VECTOR_LOAD macro layer of §4) or assemble ISA text with Assemble.
//   - Machines: NewMachine composes a tiled fabric (cores, scratchpads with
//     frame counters, inet, mesh NoC, banked LLCs, DRAM) and runs programs
//     cycle by cycle.
//   - Benchmarks: RunBenchmark executes one of the paper's 16 evaluation
//     workloads under a Table 3 configuration and checks the result against
//     a serial reference.
//
// See examples/ for runnable walkthroughs and cmd/rockbench for the
// table/figure regeneration harness.
package rockcress

import (
	"rockcress/internal/asm"
	"rockcress/internal/config"
	"rockcress/internal/energy"
	"rockcress/internal/isa"
	"rockcress/internal/kernels"
	"rockcress/internal/machine"
	"rockcress/internal/prog"
	"rockcress/internal/stats"
)

// Re-exported core types. The underlying packages carry the full API; these
// aliases make the common surface importable from the root.
type (
	// Manycore is the fabric's microarchitectural parameter set (Table 1a).
	Manycore = config.Manycore
	// Software is a Table 3 benchmark configuration row.
	Software = config.Software
	// Group describes one software-defined vector group (scalar core +
	// lane square + forwarding tree).
	Group = config.Group
	// Program is an executable instruction sequence.
	Program = isa.Program
	// Builder is the kernel-construction DSL (the paper's compiler layer).
	Builder = prog.Builder
	// Machine is a simulated fabric.
	Machine = machine.Machine
	// MachineParams configures NewMachine.
	MachineParams = machine.Params
	// MachineStats are the counters a run produces.
	MachineStats = stats.Machine
	// EnergyBreakdown is the first-order energy split of §5.2.
	EnergyBreakdown = energy.Breakdown
	// Benchmark is one evaluation workload.
	Benchmark = kernels.Benchmark
	// Result is one benchmark x configuration run.
	Result = kernels.Result
	// Scale selects benchmark input sizes.
	Scale = kernels.Scale
)

// Input scales for the benchmark suite.
const (
	Tiny  = kernels.Tiny
	Small = kernels.Small
	Full  = kernels.Full
)

// DefaultManycore returns the Table 1a configuration (64-core 8x8 mesh).
func DefaultManycore() Manycore { return config.ManycoreDefault() }

// Configs returns the Table 3 software configuration presets.
func Configs() []Software { return config.Presets() }

// Config looks a Table 3 preset up by name (NV, NV_PF, V4, V16, ...).
func Config(name string) (Software, error) { return config.Preset(name) }

// MakeGroups tiles a fabric with vector groups of the given vector length
// (a square number). On the default 8x8 mesh it reproduces the paper's
// layouts: 12 groups for V4, 3 for V16.
func MakeGroups(m Manycore, vlen int) ([]*Group, error) {
	return config.MakeGroups(m, vlen)
}

// NewBuilder starts a kernel program (§4's programming model).
func NewBuilder(name string) *Builder { return prog.New(name) }

// Assemble parses textual Rockcress assembly into a program.
func Assemble(name, src string) (*Program, error) { return asm.Assemble(name, src) }

// NewMachine composes a simulated fabric.
func NewMachine(p MachineParams) (*Machine, error) { return machine.New(p) }

// Benchmarks returns the evaluation suite (15 PolyBench/GPU kernels + bfs).
func Benchmarks() []Benchmark { return kernels.All() }

// GetBenchmark looks a benchmark up by name.
func GetBenchmark(name string) (Benchmark, error) { return kernels.Get(name) }

// RunBenchmark executes a named benchmark under a named Table 3
// configuration (or "GPU") at the given scale, validating the results
// against the serial reference.
func RunBenchmark(bench, cfg string, scale Scale) (*Result, error) {
	b, err := kernels.Get(bench)
	if err != nil {
		return nil, err
	}
	sw, err := kernels.Preset(cfg)
	if err != nil {
		return nil, err
	}
	return kernels.ExecuteOpts(b, b.Defaults(scale), sw, config.ManycoreDefault(), kernels.ExecOpts{})
}
