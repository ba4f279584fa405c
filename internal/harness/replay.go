package harness

import (
	"fmt"
	"io"

	"rockcress/internal/config"
	"rockcress/internal/kernels"
)

// FigReplay prints the recovery-ladder comparison: for every benchmark
// under V4, a fault schedule found by kernels.ProbeReplayWin — a scratchpad
// bit flip that poisons an in-flight vload frame, or a lane kill for
// kernels whose builds never stream data through frames — is repaired by
// the ladder (frame parity + vload replay + checkpointed restart) and by
// whole-run restarts only. The speedup column is the figure: in-run repair
// and snapshot resume against paying a full re-execution per consumed
// fault.
func (r *Runner) FigReplay(w io.Writer) error {
	hw := config.ManycoreDefault()
	sw, err := config.Preset("V4")
	if err != nil {
		return err
	}
	tbl := &table{header: []string{"kernel", "rung", "ladder", "restart", "speedup"}}
	// One search is one cell, however many runs it takes.
	benches := r.benches()
	r.opts.Obs.Run().AddPlanned(len(benches))
	for _, bench := range benches {
		pr, err := kernels.ProbeReplayWinOpts(bench, bench.Defaults(r.opts.Scale), sw, hw, r.execOpts())
		if err != nil {
			return fmt.Errorf("replay figure: %w", err)
		}
		tbl.add(bench.Info().Name, pr.Rung,
			fmt.Sprint(pr.Ladder.TotalCycles), fmt.Sprint(pr.Restart.TotalCycles),
			f2(float64(pr.Restart.TotalCycles)/float64(pr.Ladder.TotalCycles)))
		if r.opts.Verbose && pr.Ladder.Report != nil {
			ev := pr.Plan.Events[0]
			fmt.Fprintf(w, "# %-8s %s@%d: %s (%d attempts, %d replays, %d ckpt restarts)\n",
				bench.Info().Name, ev.Kind, ev.Cycle, pr.Ladder.Report,
				pr.Ladder.Attempts, pr.Ladder.FrameReplays, pr.Ladder.CheckpointRestarts)
		}
	}
	fmt.Fprintln(w, "Figure R: recovery ladder vs whole-run restart, one fault per kernel (V4, cycles)")
	tbl.write(w)
	fmt.Fprintln(w, "(rung = the ladder stage that repaired it; speedup = restart cycles / ladder cycles)")
	return nil
}
