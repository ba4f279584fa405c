// Command rockdoctor interprets the artifacts a simulation leaves behind:
// per-run reports, windowed telemetry, and Perfetto event traces. It never
// runs a simulation itself — rocksim -report / rockbench -report produce
// the inputs; rockdoctor explains them.
//
// Usage:
//
//	rockdoctor explain report.json        # verdict + evidence + CPI stacks
//	rockdoctor diff a.json b.json         # attribute the cycle delta
//	rockdoctor critpath report.json       # causal critical path + slack table
//	rockdoctor whatif -scale noc=0.5,dram=0.5 report.json  # project a speedup
//	rockdoctor trace trace.json           # vload-pipeline latencies, frame occupancy
//	rockdoctor timeline telem.jsonl       # per-window bottleneck phases
//	rockdoctor watch http://HOST:PORT     # live sweep progress (rockbench -listen)
//	rockdoctor flight flight-*.json       # render a flight-recorder bundle
//
// explain prints the run's bottleneck classification (frame-limited,
// noc/inet-limited, dram-bandwidth-saturated, llc-miss-bound,
// barrier-bound, or issue-bound) with the counter evidence the rule tree
// fired on. diff divides the runtime delta between two reports into
// per-category CPI-stack contributions on the pacing role (warning when
// the two reports came from different simulator builds). critpath renders
// the causal profiler's output — critical-path cycles bucketed by resource
// class, the per-resource slack table, and the longest critical intervals —
// cross-checked against the counter classifier's verdict; whatif projects
// the cycle count under hypothetical resource scalings (-causal reports
// only; see DESIGN.md "Causal profiling"). trace mines a
// -trace event file for issue→fanout→frame-open→consume latency
// percentiles. timeline classifies every telemetry window and merges
// consecutive labels into phases, showing where the bottleneck moved.
// watch polls a live rocksim/rockbench -listen process's /debug/run view
// and renders sweep progress, the simulated-MIPS meter, and the ETA as a
// refreshing status line. flight renders the forensic bundle the flight
// recorder dumps when a run trips the watchdog, exhausts its wall budget,
// crashes, or receives SIGQUIT.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"rockcress/internal/analyze"
	"rockcress/internal/causal"
	"rockcress/internal/cli"
	"rockcress/internal/metrics"
)

func main() {
	flag.Usage = usage
	cli.Main(cli.Rockdoctor, dispatch)
}

// command is one row of rockdoctor's subcommand table: dispatch, the usage
// text and every wrong-argument-count error read it.
type command struct {
	name, args, help string
	nargs            int // positional arguments; 0: the command checks its own
	run              func(ctx context.Context, args []string) error
}

var commands = []command{
	{"explain", "report.json", "classify one run and show the evidence", 1, explain},
	{"diff", "a.json b.json", "attribute the cycle delta between two runs", 2, diff},
	{"critpath", "report.json", "causal critical path, slack, cross-check", 1, critpath},
	{"whatif", "-scale k=v,... report.json", "project cycles under resource scalings (params: " +
		strings.Join(causal.ScaleKeys(), ", ") + ")", 0, whatif},
	{"trace", "trace.json", "vload-pipeline latencies and frame occupancy", 1, traceCmd},
	{"timeline", "telemetry.jsonl", "time-resolved bottleneck phases", 1, timeline},
	{"watch", "http://HOST:PORT [interval]", "live sweep progress from a -listen process", 0, watch},
	{"flight", "flight-*.json", "render a flight-recorder forensic bundle", 1, flightCmd},
}

// errUsage is a command's word for "wrong arguments": dispatch answers it
// with the command's synopsis.
var errUsage = errors.New("usage")

// dispatch runs one subcommand. rockdoctor only reads artifacts, so
// commands finish fast; the session's signal context still gives a clean
// 130 exit if one lands mid-read (a second signal falls back to the OS
// default and kills the process).
func dispatch(s *cli.Session) error {
	if len(s.Args) == 0 {
		return cli.UsageError("")
	}
	name, args := s.Args[0], s.Args[1:]
	if name == "help" {
		usage()
		return nil
	}
	for _, c := range commands {
		if c.name != name {
			continue
		}
		err := errUsage
		if c.nargs == 0 || len(args) == c.nargs {
			err = c.run(s.Ctx, args)
		}
		if errors.Is(err, errUsage) {
			return fmt.Errorf("usage: rockdoctor %s %s", c.name, c.args)
		}
		if err != nil {
			return err
		}
		return s.Ctx.Err()
	}
	return cli.UsageError(fmt.Sprintf("unknown command %q", name))
}

func usage() {
	w := os.Stderr
	fmt.Fprint(w, "rockdoctor — bottleneck attribution for Rockcress runs\n\n")
	for _, c := range commands {
		line := "rockdoctor " + c.name + " " + c.args
		if len(line) > 36 {
			line += "\n" + strings.Repeat(" ", 38)
		}
		fmt.Fprintf(w, "  %-36s  %s\n", line, c.help)
	}
	fmt.Fprint(w, `
Produce the inputs with rocksim -report/-trace/-telemetry or
rockbench -report/-telemetry; critpath and whatif need a report from a
-causal run; watch and flight read the live observability plane
(rocksim/rockbench -listen ADDR -flight DIR).
`)
}

func explain(_ context.Context, args []string) error {
	r, err := analyze.ReadReport(args[0])
	if err != nil {
		return err
	}
	analyze.Explain(os.Stdout, r)
	return nil
}

func diff(_ context.Context, args []string) error {
	a, err := analyze.ReadReport(args[0])
	if err != nil {
		return err
	}
	b, err := analyze.ReadReport(args[1])
	if err != nil {
		return err
	}
	if !metrics.SameBuild(a.Build, b.Build) {
		fmt.Printf("WARNING: reports come from different simulator builds (%s vs %s); the delta may include simulator changes, not just configuration effects\n",
			buildLabel(a.Build), buildLabel(b.Build))
	}
	d := analyze.Diff(a, b)
	d.Render(os.Stdout)
	return nil
}

func buildLabel(b *metrics.BuildInfo) string {
	if b == nil || b.Revision == "" {
		return "unstamped"
	}
	rev := b.Revision
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if b.Dirty {
		rev += "+dirty"
	}
	return rev
}

func critpath(_ context.Context, args []string) error {
	r, err := analyze.ReadReport(args[0])
	if err != nil {
		return err
	}
	return analyze.RenderCriticalPath(os.Stdout, r)
}

func whatif(_ context.Context, args []string) error {
	fs := flag.NewFlagSet("whatif", flag.ContinueOnError)
	spec := fs.String("scale", "", "comma-separated resource scalings, e.g. noc=0.5,dram=0.5 (params: "+strings.Join(causal.ScaleKeys(), ", ")+")")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spec == "" || fs.NArg() != 1 {
		return errUsage
	}
	r, err := analyze.ReadReport(fs.Arg(0))
	if err != nil {
		return err
	}
	return analyze.RenderWhatIf(os.Stdout, r, *spec)
}

func traceCmd(_ context.Context, args []string) error {
	tf, err := analyze.ReadTraceFile(args[0])
	if err != nil {
		return err
	}
	st := analyze.AnalyzeTrace(tf.Events, tf.Dropped)
	st.Truncated = tf.Truncated
	st.Render(os.Stdout)
	return nil
}

func timeline(_ context.Context, args []string) error {
	ws, truncated, err := analyze.ReadWindowsFile(args[0])
	if err != nil {
		return err
	}
	if len(ws) == 0 {
		return fmt.Errorf("%s: no telemetry windows", args[0])
	}
	if truncated {
		fmt.Println("WARNING: run was interrupted; this timeline covers a prefix of the run")
	}
	analyze.RenderTimeline(os.Stdout, analyze.Timeline(ws))
	return nil
}
