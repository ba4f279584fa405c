package harness

import (
	"fmt"
	"io"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/kernels"
)

// netfaultCuts is the x axis of the topology-degradation sweep past its
// cuts=0 point (the base cell itself): how many mesh links are cut. Every
// such point also decommissions one LLC bank, so each degraded cell
// exercises rerouting and bank failover together.
var netfaultCuts = []int{1, 2}

// FigNetFault prints the permanent-topology degradation sweep: relative
// throughput (fault-free cycles / total cycles across every attempt) for
// all kernels as c mesh links are cut mid-run — plus, for c > 0, one LLC
// bank decommissioned. The seed fixes the cut set and the victim bank, so
// every kernel and configuration routes around the same holes. Each run is
// output-checked against the serial reference, so every printed cell is a
// correct completion on the degraded fabric.
func (r *Runner) FigNetFault(w io.Writer) error {
	hw := config.ManycoreDefault()
	benches := r.benches()
	reqs, base, err := r.faultBases(benches, faultConfigs, len(netfaultCuts))
	if err != nil {
		return err
	}
	header := []string{"bench", "cuts=0"}
	for _, c := range netfaultCuts {
		header = append(header, fmt.Sprintf("cuts=%d", c))
	}
	for ci, cfgName := range faultConfigs {
		tbl := &table{header: header}
		var means [][]float64
		for bi, b := range benches {
			at := bi*len(faultConfigs) + ci // the base runs are bench-major
			sw, baseCycles := reqs[at].sw, base[at].Cycles()
			// Faults land mid-run: the first quarter of the fault-free
			// runtime, then staggered so later cuts hit a mesh already
			// routing around earlier ones.
			start := baseCycles / 4
			if start < 1 {
				start = 1
			}
			row := []string{b.Info().Name, f2(1)} // cuts=0: the base run itself
			for i, c := range netfaultCuts {
				plan := fault.Merge(
					fault.LinkPlan(faultSeed, c, hw.MeshWidth, hw.MeshHeight, start, 101),
					fault.BankPlan(faultSeed, 1, hw.LLCBanks, start+int64(c)*101, 101))
				fr, err := kernels.ExecuteWithFaultsOpts(b, b.Defaults(r.opts.Scale), sw, hw,
					plan, r.execOpts())
				if err != nil {
					return fmt.Errorf("netfault %s/%s cuts=%d: %w", b.Info().Name, cfgName, c, err)
				}
				rel := float64(baseCycles) / float64(fr.TotalCycles)
				cell := f2(rel)
				if fr.MIMDFallback {
					cell += "*"
				}
				row = append(row, cell)
				for len(means) <= i {
					means = append(means, nil)
				}
				means[i] = append(means[i], rel)
				if r.opts.Verbose && fr.Report != nil {
					fmt.Fprintf(w, "# %-10s %-4s cuts=%d: %s (%d attempts, %d cycles)\n",
						b.Info().Name, cfgName, c, fr.Report, fr.Attempts, fr.TotalCycles)
				}
			}
			tbl.add(row...)
		}
		gm := []string{"GeoMean", f2(1)}
		for _, vals := range means {
			gm = append(gm, f2(geomean(vals)))
		}
		tbl.add(gm...)
		fmt.Fprintf(w, "Figure N (%s): throughput relative to fault-free run, c links cut (+1 LLC bank dead for c>0)\n", cfgName)
		tbl.write(w)
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "(* = vector groups could not re-form; finished in MIMD fallback)")
	return nil
}
