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
	"fmt"
	"os"

	"rockcress/internal/asm"
	"rockcress/internal/cli"
	"rockcress/internal/config"
	"rockcress/internal/kernels"
	"rockcress/internal/lifecycle"
	"rockcress/internal/machine"
)

func main() { cli.Main(cli.Rockasm, run) }

func run(s *cli.Session) error {
	o := &s.Opts
	if o.In == "" {
		return cli.UsageError("-in is required")
	}
	src, err := os.ReadFile(o.In)
	if err != nil {
		return err
	}
	prog, err := asm.Assemble(o.In, string(src))
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d instructions, %d labels\n", o.In, len(prog.Code), len(prog.Labels))
	if o.Dis {
		fmt.Print(asm.Disassemble(prog))
	}
	if !o.Run {
		return nil
	}
	// SIGINT/SIGTERM and an expired -timeout abort the run at its next
	// watchdog checkpoint.
	ctx, cancel := lifecycle.WithWallBudget(s.Ctx, o.Timeout)
	defer cancel()
	m, err := machine.New(machine.Params{Cfg: config.ManycoreDefault(), Prog: prog, Ctx: ctx})
	if err != nil {
		return err
	}
	st, err := m.Run(kernels.DefaultMaxCycles)
	if err != nil {
		return err
	}
	fmt.Print(st.Summary())
	return nil
}
