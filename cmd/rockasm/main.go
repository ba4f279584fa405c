// Command rockasm assembles and disassembles Rockcress ISA text, and can
// run a program directly on a simulated fabric.
//
// Usage:
//
//	rockasm -in prog.s                 # assemble + validate, print summary
//	rockasm -in prog.s -dis            # round-trip back to text
//	rockasm -in prog.s -run            # run on a 64-core fabric, print stats
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"rockcress/internal/asm"
	"rockcress/internal/config"
	"rockcress/internal/lifecycle"
	"rockcress/internal/machine"
	"rockcress/internal/metrics"
)

func main() {
	var (
		inPath  = flag.String("in", "", "assembly source file (required)")
		disFlag = flag.Bool("dis", false, "print the round-tripped disassembly")
		runFlag = flag.Bool("run", false, "run the program on a default fabric")
		budget  = flag.Int64("max-cycles", 50_000_000, "simulation budget for -run")
		timeout = flag.Duration("timeout", 0, "wall-clock budget for -run (0 = unlimited)")
		listen  = flag.String("listen", "", "serve live introspection for -run on this address (/metrics, /debug/machine, /debug/pprof/)")
	)
	flag.Parse()
	if *inPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*inPath)
	if err != nil {
		fatal(err)
	}
	prog, err := asm.Assemble(*inPath, string(src))
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d instructions, %d labels\n", *inPath, len(prog.Code), len(prog.Labels))
	if *disFlag {
		fmt.Print(asm.Disassemble(prog))
	}
	if *runFlag {
		// SIGINT/SIGTERM abort the run at its next watchdog checkpoint.
		ctx, stop := lifecycle.WithSignals(context.Background())
		defer stop()
		var deadline time.Time
		if *timeout > 0 {
			deadline = time.Now().Add(*timeout)
		}
		plane, stopObs, err := metrics.StartCLI("rockasm", *listen, "", "")
		if err != nil {
			fatal(err)
		}
		defer stopObs()
		m, err := machine.New(machine.Params{Cfg: config.ManycoreDefault(), Prog: prog,
			Ctx: ctx, WallDeadline: deadline, Obs: plane})
		if err != nil {
			fatal(err)
		}
		st, err := m.Run(*budget)
		if err != nil {
			fatal(err)
		}
		fmt.Print(st.Summary())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rockasm:", err)
	if lifecycle.Interrupted(err) {
		os.Exit(lifecycle.ExitCodeInterrupted)
	}
	os.Exit(1)
}
