package harness

import (
	"fmt"
	"io"

	"rockcress/internal/config"
	"rockcress/internal/fault"
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
		means := make([][]float64, len(netfaultCuts))
		for bi, b := range benches {
			at := bi*len(faultConfigs) + ci // the base runs are bench-major
			row, rels, err := r.faultRow(w, reqs[at], base[at], len(netfaultCuts),
				func(j int, start int64) *fault.Plan {
					c := netfaultCuts[j]
					return fault.Merge(
						fault.LinkPlan(faultSeed, c, hw.MeshWidth, hw.MeshHeight, start, 101),
						fault.BankPlan(faultSeed, 1, hw.LLCBanks, start+int64(c)*101, 101))
				},
				func(j int) string {
					return fmt.Sprintf("%-10s %-4s cuts=%d", b.Info().Name, cfgName, netfaultCuts[j])
				})
			if err != nil {
				return err
			}
			for j, rel := range rels {
				means[j] = append(means[j], rel)
			}
			tbl.add(append([]string{b.Info().Name}, row...)...)
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
