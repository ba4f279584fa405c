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
// are planned now and /debug/run's ETA covers them. Each cell's request
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
		sw, baseCycles := reqs[i].sw, base[i].Cycles()
		// Kills land mid-run: the first quarter of the fault-free runtime,
		// then staggered so later victims die while earlier restarts are
		// already underway.
		start := baseCycles / 4
		if start < 1 {
			start = 1
		}
		row := []string{cfgName, f2(1)} // k=0: the base run itself
		for _, k := range faultKills {
			plan := fault.KillPlan(faultSeed, k, hw.Cores, start, 101)
			fr, err := kernels.ExecuteWithFaultsOpts(bench, bench.Defaults(r.opts.Scale), sw, hw,
				plan, r.execOpts())
			if err != nil {
				return fmt.Errorf("fault curve %s k=%d: %w", cfgName, k, err)
			}
			cell := f2(float64(baseCycles) / float64(fr.TotalCycles))
			if fr.MIMDFallback {
				cell += "*"
			}
			row = append(row, cell)
			if r.opts.Verbose && fr.Report != nil {
				fmt.Fprintf(w, "# %-4s k=%d: %s (%d attempts, %d cycles)\n",
					cfgName, k, fr.Report, fr.Attempts, fr.TotalCycles)
			}
		}
		tbl.add(row...)
	}
	fmt.Fprintln(w, "Figure F: mvt throughput relative to fault-free run, k tiles killed")
	tbl.write(w)
	fmt.Fprintln(w, "(* = vector groups could not re-form; finished in MIMD fallback)")
	return nil
}
