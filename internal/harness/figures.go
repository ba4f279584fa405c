package harness

import (
	"fmt"
	"io"

	"rockcress/internal/config"
	"rockcress/internal/kernels"
	"rockcress/internal/stats"
)

// Figure is one entry of the figure registry.
type Figure struct {
	Name  string // rockbench -fig NAME
	Paper bool   // a figure of the paper's §6 (part of -all); false = a robustness extension
	Fn    func(*Runner, io.Writer) error
}

// Figures lists every figure generator in -all order. rockbench derives
// its -fig help, dispatch and -all sequence from it.
var Figures = []Figure{
	{"10", true, (*Runner).Fig10},
	{"11", true, (*Runner).Fig11},
	{"12", true, (*Runner).Fig12},
	{"13", true, (*Runner).Fig13},
	{"14", true, (*Runner).Fig14},
	{"15", true, (*Runner).Fig15},
	{"16", true, (*Runner).Fig16},
	{"17a", true, (*Runner).Fig17a},
	{"17b", true, (*Runner).Fig17b},
	{"17c", true, (*Runner).Fig17c},
	{"bfs", true, (*Runner).BFS},
	{"fault", false, (*Runner).FigFault},
	{"replay", false, (*Runner).FigReplay},
	{"netfault", false, (*Runner).FigNetFault},
}

// --- table shape 1: one metric per cell ---

// metricTable renders a grid as one row per benchmark and one cell per
// column holding metric(result): as measured (base < 0), or normalised to
// the row's base column — base/value for a speedup, value/base for a ratio
// — with an optional footer folding each column.
type metricTable struct {
	title   string
	metric  func(*kernels.Result) float64
	base    int                     // column every row is normalised to; < 0 = print the metric itself
	speedup bool                    // lower is better: print base/value, not value/base
	footer  string                  // footer row label; "" = no footer
	fold    func([]float64) float64 // what the footer does to a column
	ncols   int                     // leading columns shown; 0 = all (Fig 14b/c drop the GPU)
}

func (m metricTable) write(w io.Writer, benches []kernels.Benchmark, cols []col, g [][]*kernels.Result) {
	if m.ncols > 0 {
		cols = cols[:m.ncols]
	}
	t := &table{header: []string{"bench"}}
	for _, c := range cols {
		t.header = append(t.header, c.name)
	}
	sums := make([][]float64, len(cols))
	for i, b := range benches {
		row := []string{b.Info().Name}
		for j := range cols {
			v := m.metric(g[i][j])
			if m.base >= 0 {
				if bv := m.metric(g[i][m.base]); m.speedup {
					v = bv / v
				} else {
					v /= bv
				}
			}
			sums[j] = append(sums[j], v)
			row = append(row, f2(v))
		}
		t.add(row...)
	}
	if m.footer != "" {
		row := []string{m.footer}
		for _, s := range sums {
			row = append(row, f2(m.fold(s)))
		}
		t.add(row...)
	}
	fmt.Fprintln(w, m.title)
	t.write(w)
}

// metricFig is a figure of metric tables over one grid of the session's
// benchmarks, blank-line separated.
func (r *Runner) metricFig(w io.Writer, cols []col, tables ...metricTable) error {
	benches := r.benches()
	g, err := r.grid(benches, cols)
	if err != nil {
		return err
	}
	for i, t := range tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		t.write(w, benches, cols, g)
	}
	return nil
}

// speedup is the commonest table: cycles relative to column 0, with a
// geometric-mean footer.
func speedup(title string) metricTable {
	return metricTable{title: title, metric: cycles, speedup: true, footer: "GeoMean", fold: geomean}
}

// ratio is a GeoMean-footed table of metric relative to column 0.
func ratio(title string, metric func(*kernels.Result) float64, ncols int) metricTable {
	return metricTable{title: title, metric: metric, footer: "GeoMean", fold: geomean, ncols: ncols}
}

func cycles(res *kernels.Result) float64   { return float64(res.Cycles()) }
func icache(res *kernels.Result) float64   { return float64(res.Stats.TotalICacheAccesses()) }
func onChip(res *kernels.Result) float64   { return res.Energy.OnChip() }
func missRate(res *kernels.Result) float64 { return res.Stats.LLCMissRate() }

// --- table shape 2: CPI stacks ---

// allTiles lists every tile of the run's machine.
func allTiles(res *kernels.Result) []int {
	all := make([]int, res.HW.Cores)
	for i := range all {
		all[i] = i
	}
	return all
}

// groupTiles collects pick over a run's vector groups. A MIMD run has no
// groups — every tile does the kernel's work — so it yields all tiles.
func groupTiles(res *kernels.Result, pick func(*config.Group) []int) []int {
	if len(res.Groups) == 0 {
		return allTiles(res)
	}
	var tiles []int
	for _, g := range res.Groups {
		tiles = append(tiles, pick(g)...)
	}
	return tiles
}

// expanders is Figure 13's methodology note: a vector run's CPI stack is
// read on its expander cores only.
func expanders(res *kernels.Result) []int {
	return groupTiles(res, func(g *config.Group) []int { return []int{g.Expander} })
}

// lanes are the cores executing the kernel body (Figure 15c).
func lanes(res *kernels.Result) []int {
	return groupTiles(res, func(g *config.Group) []int { return g.Lanes })
}

// cpiFig renders a grid as CPI stacks: one row per (benchmark, column)
// breaking the effective CPI of the tiles the picker selects into its stall
// components (the inet and backpressure components only where vector
// columns can have them), then one ArithMean CPI row per column. label
// heads the column-name column.
func (r *Runner) cpiFig(w io.Writer, title, label string, cols []col, tiles func(*kernels.Result) []int, withInet bool) error {
	benches := r.benches()
	g, err := r.grid(benches, cols)
	if err != nil {
		return err
	}
	parts := []string{"issued", "frame", "other"}
	if withInet {
		parts = []string{"issued", "frame", "inet", "backpr", "other"}
	}
	t := &table{header: append(append([]string{"bench", label}, parts...), "CPI")}
	totals := make([][]float64, len(cols))
	for i, b := range benches {
		for j, c := range cols {
			s := g[i][j].Stats.CPIStackFor(tiles(g[i][j]))
			row := []string{b.Info().Name, c.name, f2(s.Issued), f2(s.Frame)}
			if withInet {
				row = append(row, f2(s.Inet), f2(s.Backpressure))
			}
			t.add(append(row, f2(s.Other), f2(s.Total()))...)
			totals[j] = append(totals[j], s.Total())
		}
	}
	for j, c := range cols {
		row := make([]string, len(t.header))
		row[0], row[1], row[len(row)-1] = "ArithMean", c.name, f2(mean(totals[j]))
		t.add(row...)
	}
	fmt.Fprintln(w, title)
	t.write(w)
	return nil
}

// --- the figures ---

// Fig10 regenerates the headline result (Figure 10): speedup, I-cache
// accesses, and total on-chip energy for NV, NV_PF, and BEST_V, all
// relative to the NV baseline.
func (r *Runner) Fig10(w io.Writer) error {
	return r.metricFig(w, append(plain("NV", "NV_PF"), bestV),
		speedup("Figure 10a: speedup relative to NV"),
		ratio("Figure 10b: I-cache accesses relative to NV", icache, 0),
		ratio("Figure 10c: total on-chip energy relative to NV", onChip, 0))
}

// The sensitivity figures' hardware modifiers. Some restate the default
// machine (64 cores, 16 kB banks, NW4); the cache keys a cell by the machine
// it builds, so those columns read the default cells.

// coreCount is a side x side mesh with 2*side LLC banks, the same total LLC
// capacity and DRAM bandwidth (Figures 11 and 12), named by its core count.
func coreCount(side int) HWMod {
	return HWMod{Name: fmt.Sprint(side * side), Fn: func(c *config.Manycore) {
		c.MeshWidth, c.MeshHeight, c.Cores, c.LLCBanks = side, side, side*side, 2*side
	}}
}

// dramBW2x doubles the DRAM bandwidth (Figure 13).
var dramBW2x = HWMod{Name: "2xBW", Fn: func(c *config.Manycore) { c.DRAMBandwidth *= 2 }}

// llcPerBank sizes every LLC bank at kb kilobytes (Figure 17b).
func llcPerBank(kb int) HWMod {
	return HWMod{Name: fmt.Sprintf("%dkB", kb), Fn: func(c *config.Manycore) { c.LLCBytes = kb * 1024 * c.LLCBanks }}
}

// netWidth sets the on-chip network width in words (Figure 17c).
func netWidth(words int) HWMod {
	return HWMod{Name: fmt.Sprintf("NW%d", words), Fn: func(c *config.Manycore) { c.NetWidthWords = words }}
}

// coreCountCols are the Figure 11/12 machine shrinks as NV_PF columns named
// prefix + core count.
func coreCountCols(prefix string, sides ...int) []col {
	var cols []col
	for _, side := range sides {
		mod := coreCount(side)
		cols = append(cols, col{name: prefix + mod.Name, cfgs: []string{"NV_PF"}, mod: &mod})
	}
	return cols
}

// Fig11 regenerates the baseline scalability study: NV_PF speedup for
// 1/4/16/64 cores relative to one core, with the same memory system
// capacity and bandwidth.
func (r *Runner) Fig11(w io.Writer) error {
	return r.metricFig(w, coreCountCols("NV_PF_", 1, 2, 4, 8),
		speedup("Figure 11: NV_PF speedup vs core count (relative to 1 core)"))
}

// Fig12 regenerates the CPI stacks across manycore sizes (1/16/64 cores).
func (r *Runner) Fig12(w io.Writer) error {
	return r.cpiFig(w, "Figure 12: NV_PF CPI stacks vs core count (frame stall = waiting on loads)",
		"cores", coreCountCols("", 1, 4, 8), allTiles, false)
}

// Fig13 regenerates the bandwidth study: CPI stacks for NV_PF, NV_PF with
// twice the DRAM bandwidth, and V4 (expander cores only, per the paper's
// methodology note).
func (r *Runner) Fig13(w io.Writer) error {
	cols := []col{{name: "NV_PF", cfgs: []string{"NV_PF"}},
		{name: "NV_PF_2xBW", cfgs: []string{"NV_PF"}, mod: &dramBW2x},
		{name: "V4", cfgs: []string{"V4"}}}
	return r.cpiFig(w, "Figure 13: CPI stacks, NV_PF vs 2x DRAM bandwidth vs V4 (expander cores)",
		"config", cols, expanders, true)
}

// Fig14 regenerates the SIMD and GPU comparison: speedup, I-cache accesses,
// and energy relative to NV_PF for PCV_PF, BEST_V, BEST_V_PCV, and (14a
// only: it has no I-cache or energy model) the GPU.
func (r *Runner) Fig14(w io.Writer) error {
	return r.metricFig(w, append(append(plain("NV_PF", "PCV_PF"), bestV, bestVPCV), plain("GPU")...),
		speedup("Figure 14a: speedup relative to NV_PF (SIMD units and GPU)"),
		ratio("Figure 14b: I-cache accesses relative to NV_PF", icache, 4),
		ratio("Figure 14c: total on-chip energy relative to NV_PF", onChip, 4))
}

// fig15Benches are the five benchmarks the paper characterizes by hop.
var fig15Benches = []string{"2dconv", "3dconv", "bicg", "gemm", "syr2k"}

// Fig15 regenerates the vector-group characterization: inet input stalls
// and backpressure stalls by hop distance from the scalar core (V4 and
// V16), and the fraction of cycles waiting for frames (NV_PF vs V4). The
// hop tables have two rows per benchmark and one column per hop, which is
// neither table shape, so they are formatted here.
func (r *Runner) Fig15(w io.Writer) error {
	var hopBenches []kernels.Benchmark
	for _, name := range fig15Benches {
		b, err := kernels.Get(name)
		if err != nil {
			return err
		}
		hopBenches = append(hopBenches, b)
	}
	// Both grids are fetched before the first table is written, so a
	// verbose run's progress lines all precede the figure.
	hopCols, frameCols := plain("V4", "V16"), plain("NV_PF", "V4")
	hops, err := r.grid(hopBenches, hopCols)
	if err != nil {
		return err
	}
	benches := r.benches()
	frames, err := r.grid(benches, frameCols)
	if err != nil {
		return err
	}
	for j, c := range hopCols {
		t := &table{header: []string{"bench", "kind", "hop0", "hop1", "hop2", "hop3", "hop4", "hop5", "hop6", "hop7"}}
		for i, name := range fig15Benches {
			for _, kind := range []stats.StallKind{stats.StallInet, stats.StallBackpressure} {
				frac := hops[i][j].Stats.StallFractionByHop(kind)
				row := []string{name, kind.String()}
				for hop := 0; hop <= 7; hop++ {
					if v, ok := frac[hop]; ok {
						row = append(row, f2(v))
					} else {
						row = append(row, "-")
					}
				}
				t.add(row...)
			}
		}
		fmt.Fprintf(w, "Figure 15a/15b (%s): inet-input and backpressure stalls by hop (hop 0 = scalar core)\n", c.name)
		t.write(w)
		fmt.Fprintln(w)
	}
	metricTable{
		title:  "Figure 15c: fraction of cycles waiting for a frame (NV_PF vs V4 vector cores)",
		metric: func(res *kernels.Result) float64 { return res.Stats.FrameStallFraction(lanes(res)) },
		base:   -1, footer: "ArithMean", fold: mean,
	}.write(w, benches, frameCols, frames)
	return nil
}

// Fig16 regenerates the vector-length / long-line study: V4, V4_LL_PCV,
// V16, V16_LL_PCV speedups relative to V4.
func (r *Runner) Fig16(w io.Writer) error {
	return r.metricFig(w, plain("V4", "V4_LL_PCV", "V16", "V16_LL_PCV"),
		speedup("Figure 16: vector configuration speedups relative to V4"))
}

// Fig17a regenerates the LLC miss-rate comparison. Miss rates can be zero,
// so the footer is an arithmetic mean.
func (r *Runner) Fig17a(w io.Writer) error {
	return r.metricFig(w, append(append(plain("NV", "NV_PF"), bestV), plain("V16_LL")...), metricTable{
		title: "Figure 17a: LLC miss rate", metric: missRate, base: -1, footer: "ArithMean", fold: mean})
}

// sensitivity renders a hardware-sensitivity figure: NV_PF, V4 and V16_LL
// on each modified machine, as speedups over column base, no footer.
func (r *Runner) sensitivity(w io.Writer, title string, mods []HWMod, base int) error {
	var cols []col
	for _, cfg := range []string{"NV_PF", "V4", "V16_LL"} {
		for i := range mods {
			cols = append(cols, col{name: cfg + "_" + mods[i].Name, cfgs: []string{cfg}, mod: &mods[i]})
		}
	}
	return r.metricFig(w, cols, metricTable{title: title, metric: cycles, base: base, speedup: true})
}

// Fig17b regenerates the LLC-capacity sensitivity: per-bank 16 kB (256 kB
// in total, the default) vs 32 kB slices, relative to NV_PF at 32 kB.
func (r *Runner) Fig17b(w io.Writer) error {
	return r.sensitivity(w, "Figure 17b: speedup vs LLC capacity (relative to NV_PF with 32kB banks)",
		[]HWMod{llcPerBank(16), llcPerBank(32)}, 1)
}

// Fig17c regenerates the on-chip network width sensitivity (1 vs 4 words).
func (r *Runner) Fig17c(w io.Writer) error {
	return r.sensitivity(w, "Figure 17c: speedup vs on-chip network width (relative to NV_PF width 1)",
		[]HWMod{netWidth(1), netWidth(4)}, 0)
}

// BFS regenerates the irregular-workload result of §6.6: plain manycore
// against the V4 and V16 mappings of breadth-first search. The table is
// transposed — one row per configuration of a single benchmark — so it is
// formatted here.
func (r *Runner) BFS(w io.Writer) error {
	b, err := kernels.Get("bfs")
	if err != nil {
		return err
	}
	cols := plain("NV", "V4", "V16")
	g, err := r.grid([]kernels.Benchmark{b}, cols)
	if err != nil {
		return err
	}
	t := &table{header: []string{"config", "cycles", "NV speedup over it"}}
	for j, c := range cols {
		t.add(c.name, fmt.Sprint(g[0][j].Cycles()), f2(cycles(g[0][j])/cycles(g[0][0])))
	}
	fmt.Fprintln(w, "Section 6.6 (irregular): bfs on manycore vs vector groups")
	t.write(w)
	return nil
}
