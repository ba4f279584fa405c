// Package cli is the command lines' one option table and their one session.
//
// Every flag of rocksim, rockbench and rockasm is a row of Flags: its name,
// the commands that declare it, the Options field it sets, its default and
// its help. A command selects its rows by its Prog bit and gets one filled
// Options back. Main is the one session around it: it parses the rows,
// brings up what they ask for (signal handling, the flight recorder, the
// CPU profile), runs the command, and ends it through one exit path that
// flushes every artifact, failed runs included.
package cli

import (
	"flag"
	"fmt"
	"math/bits"
	"reflect"
	"runtime"
	"time"

	"rockcress/internal/harness"
	"rockcress/internal/trace"
)

// Prog is one command; a row's Progs is the set of commands that declare it.
type Prog uint8

const (
	Rocksim Prog = 1 << iota
	Rockbench
	Rockasm
	Rockdoctor
)

var progNames = [...]string{"rocksim", "rockbench", "rockasm", "rockdoctor"}

func (p Prog) String() string { return progNames[bits.TrailingZeros8(uint8(p))] }

// Options is everything one command line sets: one struct per run, filled
// from the rows its command declares and zero elsewhere.
type Options struct {
	// What to run. Bench is one kernel in rocksim, a comma-separated subset
	// in rockbench.
	Bench, Config, Scale, Faults, In  string
	Table, Fig, Check, UpdateBaseline string
	All, Dis, Run, DumpAsm            bool
	Jobs                              int
	Timeout                           time.Duration
	Causal, Verbose, Quiet, Prof      bool

	// What it leaves behind: rocksim's files, rockbench's directories (one
	// file per simulation).
	Trace, Telemetry, Report, Pprof string
	TelemetryDir, ReportDir         string
	TraceBuf                        int
	Sample                          int64

	// The flight recorder and resumability.
	Flight, Journal string
	Resume          bool
}

// Flag is one row of the option table. Default has the field's type; nil
// means the zero value.
type Flag struct {
	Name    string
	Progs   Prog
	Field   string // the Options field it sets
	Default any
	Help    string
}

// Flags is the option table. A name appears twice only where two commands
// give it two meanings (a file against a directory, one kernel against a
// subset).
var Flags = []Flag{
	// What to run.
	{"bench", Rocksim, "Bench", "gemm", "benchmark name (see rockbench -table 2)"},
	{"bench", Rockbench, "Bench", nil, "comma-separated benchmark subset"},
	{"config", Rocksim, "Config", "NV", "Table 3 configuration name, or GPU"},
	{"scale", Rocksim | Rockbench, "Scale", "small", "input scale: tiny, small, full"},
	{"faults", Rocksim, "Faults", nil, `fault schedule, e.g. "seed=42;kill@3000:t12;cutlink@2000:5>6;killbank@4000:b3"`},
	{"table", Rockbench, "Table", nil, "table to print: " + harness.TableNames()},
	{"fig", Rockbench, "Fig", nil, "figure to regenerate: " + harness.FigureNames()},
	{"all", Rockbench, "All", nil, "regenerate every table and figure"},
	{"check", Rockbench, "Check", nil, "perf gate: verify cycle counts against this baseline file and exit nonzero on drift"},
	{"update-baseline", Rockbench, "UpdateBaseline", nil, "re-record the baseline file at -scale"},
	{"in", Rockasm, "In", nil, "assembly source file (required)"},
	{"dis", Rockasm, "Dis", nil, "print the round-tripped disassembly"},
	{"run", Rockasm, "Run", nil, "run the program on a default fabric"},
	{"dump-asm", Rocksim, "DumpAsm", nil, "print the built program's disassembly and exit"},

	// How it runs and what it prints.
	{"j", Rockbench, "Jobs", runtime.GOMAXPROCS(0), "parallel simulations per figure sweep (results are identical for any value)"},
	{"timeout", Rocksim | Rockbench | Rockasm, "Timeout", nil, "wall-clock budget per simulation (0 = unlimited); an over-budget run fails with a diagnostic state dump"},
	{"causal", Rocksim | Rockbench, "Causal", nil, "record the causal profile (critical-path buckets, slack, what-if projections; the critical_path section of -report output); cycle counts are bit-identical with or without it"},
	{"v", Rocksim, "Verbose", nil, "print per-core CPI stack and energy split"},
	{"q", Rockbench, "Quiet", nil, "suppress per-run progress lines"},
	{"prof", Rocksim, "Prof", nil, "print the engine's per-stage wall-time self-profile"},

	// What it leaves behind.
	{"trace", Rocksim, "Trace", nil, "write a Chrome trace-event / Perfetto JSON event trace to this file"},
	{"trace-buf", Rocksim, "TraceBuf", trace.DefaultEventCap, "event-trace ring capacity; oldest events drop (with a warning) when exceeded"},
	{"telemetry", Rocksim, "Telemetry", nil, "write cycle-windowed telemetry (JSONL) to this file"},
	{"telemetry", Rockbench, "TelemetryDir", nil, "write per-run cycle-windowed telemetry (JSONL) into this directory"},
	{"report", Rocksim, "Report", nil, "write the canonical per-run report (JSON, for rockdoctor) to this file"},
	{"report", Rockbench, "ReportDir", nil, "write per-run reports (rockdoctor JSON) into this directory"},
	{"sample", Rocksim | Rockbench, "Sample", int64(trace.DefaultSampleEvery), "size in cycles of the -telemetry JSONL windows"},
	{"pprof", Rocksim | Rockbench, "Pprof", nil, "write a CPU profile of the whole process to this file"},

	// The flight recorder and resumability.
	{"flight", Rocksim | Rockbench, "Flight", nil, "write flight-recorder bundles into this directory when a run dies badly (watchdog, wall budget, crash), on SIGQUIT, or on the first SIGINT"},
	{"journal", Rockbench, "Journal", nil, "record completed sweep cells crash-safely into this file"},
	{"resume", Rockbench, "Resume", nil, "reload -journal and skip its completed cells (final tables are byte-identical to an uninterrupted run)"},
}

// declare binds prog's rows to fs, each to its field of o.
func declare(fs *flag.FlagSet, prog Prog, o *Options) {
	for _, f := range Flags {
		if f.Progs&prog == 0 {
			continue
		}
		switch p := reflect.ValueOf(o).Elem().FieldByName(f.Field).Addr().Interface().(type) {
		case *string:
			fs.StringVar(p, f.Name, def[string](f), f.Help)
		case *bool:
			fs.BoolVar(p, f.Name, def[bool](f), f.Help)
		case *int:
			fs.IntVar(p, f.Name, def[int](f), f.Help)
		case *int64:
			fs.Int64Var(p, f.Name, def[int64](f), f.Help)
		case *time.Duration:
			fs.DurationVar(p, f.Name, def[time.Duration](f), f.Help)
		default:
			panic(fmt.Sprintf("cli: -%s sets Options.%s of unsupported type %T", f.Name, f.Field, p))
		}
	}
}

// def is f's default as its field's type; a mistyped default panics.
func def[T any](f Flag) T {
	if f.Default == nil {
		var zero T
		return zero
	}
	return f.Default.(T)
}
