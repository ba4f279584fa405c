package harness

import (
	"fmt"
	"io"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/kernels"
)

// faultSeed fixes the victim tiles of the degradation curve: every
// configuration loses the same tiles, so the curve compares like against
// like (the point of fault.KillPlan's seeded victim choice).
const faultSeed = 0x5eed

// faultKills is the x axis of the degradation curve past its k=0 point: how
// many tiles die. The k=0 point is the base cell itself, relative to itself.
var faultKills = []int{1, 2, 4, 8}

// faultConfigs are the Table 3 rows both fault figures compare: plain MIMD
// against both vector lengths (group reformation has more to lose at V16),
// routing the same traffic around the same holes.
var faultConfigs = []string{"NV", "V4", "V16"}

// faultBases fetches the fault-free run of every benches x cfgs cell,
// bench-major, for a fault figure with the given number of faulted x-axis
// points per cell. The base runs are independent and share the pool; the
// ladder cells that follow stay serial — each is a restart chain whose plan
// depends on its base cycle count — but their number is known here, so they
// are planned now and a flight bundle's sweep section counts them. Each
// cell's request
// comes back beside its result: the ladder re-executes its software.
func (r *Runner) faultBases(benches []kernels.Benchmark, cfgs []string, faulted int) ([]runReq, []*kernels.Result, error) {
	reqs, err := requests(benches, plain(cfgs...))
	if err != nil {
		return nil, nil, err
	}
	base, err := r.fetch(reqs)
	if err != nil {
		return nil, nil, err
	}
	r.opts.Obs.Run().AddPlanned(len(reqs) * faulted)
	return reqs, base, nil
}

// faultRow runs the n ladder cells of one fault-figure row against its
// fault-free base run. Faults land mid-run: plan(i, start) builds cell i's
// schedule from the first quarter of the fault-free runtime, staggered so
// later faults hit a fabric already recovering from earlier ones. It returns
// the row's cells — the base column f2(1) first, then each relative
// throughput with a * for MIMD fallback — and the relative throughputs
// themselves. tag(i) names cell i in -v lines and errors.
func (r *Runner) faultRow(w io.Writer, req runReq, base *kernels.Result, n int,
	plan func(i int, start int64) *fault.Plan, tag func(i int) string) ([]string, []float64, error) {
	b, baseCycles := req.bench, base.Cycles()
	start := max(baseCycles/4, 1)
	row, rels := []string{f2(1)}, make([]float64, n)
	for i := range n {
		fr, err := kernels.ExecuteWithFaultsOpts(b, b.Defaults(r.opts.Scale), req.sw, config.ManycoreDefault(),
			plan(i, start), r.execOpts())
		if err != nil {
			return nil, nil, fmt.Errorf("fault cell %s: %w", tag(i), err)
		}
		rels[i] = float64(baseCycles) / float64(fr.TotalCycles)
		cell := f2(rels[i])
		if fr.MIMDFallback {
			cell += "*"
		}
		row = append(row, cell)
		if r.opts.Verbose && fr.Report != nil {
			fmt.Fprintf(w, "# %s: %s (%d attempts, %d cycles)\n", tag(i), fr.Report, fr.Attempts, fr.TotalCycles)
		}
	}
	return row, rels, nil
}

// FigFault prints the graceful-degradation curve: relative throughput
// (fault-free cycles / total cycles including aborted attempts) for mvt as
// k tiles are killed mid-run. A trailing * marks runs that could no longer
// form vector groups and fell back to MIMD.
func (r *Runner) FigFault(w io.Writer) error {
	bench, err := kernels.Get("mvt")
	if err != nil {
		return err
	}
	hw := config.ManycoreDefault()
	reqs, base, err := r.faultBases([]kernels.Benchmark{bench}, faultConfigs, len(faultKills))
	if err != nil {
		return err
	}
	header := []string{"config", "k=0"}
	for _, k := range faultKills {
		header = append(header, fmt.Sprintf("k=%d", k))
	}
	tbl := &table{header: header}
	for i, cfgName := range faultConfigs {
		row, _, err := r.faultRow(w, reqs[i], base[i], len(faultKills),
			func(j int, start int64) *fault.Plan {
				return fault.KillPlan(faultSeed, faultKills[j], hw.Cores, start, 101)
			},
			func(j int) string { return fmt.Sprintf("%-4s k=%d", cfgName, faultKills[j]) })
		if err != nil {
			return err
		}
		tbl.add(append([]string{cfgName}, row...)...)
	}
	fmt.Fprintln(w, "Figure F: mvt throughput relative to fault-free run, k tiles killed")
	tbl.write(w)
	fmt.Fprintln(w, "(* = vector groups could not re-form; finished in MIMD fallback)")
	return nil
}
