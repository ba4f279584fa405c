package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"time"

	"rockcress/internal/analyze"
	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/harness"
	"rockcress/internal/kernels"
	"rockcress/internal/metrics"
	"rockcress/internal/stats"
	"rockcress/internal/trace"
)

// layers holds one workload's per-layer metric values by name.
type layers map[string]float64

// passOut is what one pass over a workload's cell list produced.
type passOut struct {
	cycles    int64 // simulated cycles summed over the cells
	attempted int
	failed    int
	// results holds one entry per directly executed cell (nil when it
	// failed), kept so the traced mirror can be held against it.
	results []*kernels.Result
	// wall is set by traced passes only: the mirrored pass, probes excluded.
	wall time.Duration
}

func (o *passOut) add(res *kernels.Result, cycles int64, err error) {
	o.attempted++
	o.results = append(o.results, res)
	if err != nil {
		o.failed++
		fmt.Fprintf(os.Stderr, "perf: cell failed: %v\n", err)
		return
	}
	o.cycles += cycles
}

// workload is one fixed cell list and the ways to run it.
type workload interface {
	// build makes the cell list from the seed. smoke shrinks it to the
	// first two cells at Tiny scale.
	build(seed int64, smoke bool) error
	// pass executes the whole list once, cold per cell, tracing off.
	pass() passOut
	// traced executes the list once more as spans around each layer's
	// public calls, fills L, and runs the workload's measurement-only
	// probes. ref is the last untraced pass.
	traced(tr *tracer, cellBase int, ref passOut, L layers) passOut
}

type workloadDef struct {
	name, why string
	w         workload
}

var polyNoGram = []string{"2dconv", "2mm", "3dconv", "3mm", "atax", "bicg", "corr", "covar",
	"fdtd-2d", "gemm", "gesummv", "mvt", "syr2k", "syrk"}

// workloads lists the benchmark's workloads in reporting order. The why
// strings are the ones BENCHMARK.json carries.
func workloads() []workloadDef {
	return []workloadDef{
		{"mimd_small", "64 independent NV frontends issuing word loads: mesh planes and LLC banks carry the run loop",
			&direct{pairs: cross([]string{"mvt", "gesummv", "bicg", "syrk", "2mm", "2dconv", "fdtd-2d"}, []string{"NV"}),
				probes: true}},
		{"vector_small", "V4/V16 groups on 14 kernels: core-group stage, inet and frame counters dominate, V16 parks 13 tiles",
			&direct{pairs: cross(polyNoGram, []string{"V4", "V16"})}},
		{"sweep_tiny", "Fig10/12/14/16 through a fresh harness: ~200 short cold cells, reports, energy, GPU, 1- to 64-core meshes",
			&sweep{}},
		{"observed_small", "same machine with causal profiler, sampler, recorder and metrics plane attached on six cells",
			&direct{pairs: [][2]string{{"mvt", "NV"}, {"gesummv", "NV"}, {"mvt", "V4"}, {"gesummv", "V4"},
				{"syrk", "V4"}, {"bicg", "V16"}}, observed: true}},
		{"fault_tiny", "recovery ladder on kill, cut-link and dead-bank plans: per-attempt construction and snapshots, not the tick",
			&ladder{}},
	}
}

func cross(benches, cfgs []string) [][2]string {
	var out [][2]string
	for _, b := range benches {
		for _, c := range cfgs {
			out = append(out, [2]string{b, c})
		}
	}
	return out
}

// cell is one benchmark x configuration execution.
type cell struct {
	bench kernels.Benchmark
	sw    config.Software
	hw    config.Manycore
	p     kernels.Params
	// fault_tiny only: the fault schedule, or a ProbeReplayWin search.
	plan  *fault.Plan
	probe bool
}

func (c *cell) String() string { return c.bench.Info().Name + "/" + c.sw.Name }

func newCell(bench, cfg string, scale kernels.Scale, seed int64) (cell, error) {
	b, err := kernels.Get(bench)
	if err != nil {
		return cell{}, err
	}
	sw, err := config.Preset(cfg)
	if err != nil {
		return cell{}, err
	}
	p := b.Defaults(scale)
	p.Seed = seed
	return cell{bench: b, sw: sw, hw: config.ManycoreDefault(), p: p}, nil
}

func scaleFor(smoke bool) kernels.Scale {
	if smoke {
		return kernels.Tiny
	}
	return kernels.Small
}

// --- directly executed workloads (mimd_small, vector_small, observed_small) ---

type direct struct {
	pairs    [][2]string // benchmark, Table 3 row
	observed bool        // attach every observer, as rocksim -causal -sample -trace -listen would
	probes   bool        // run the Workers:2 and 16x16 probes in the traced pass
	cells    []cell
	scale    kernels.Scale
}

func (d *direct) build(seed int64, smoke bool) error {
	d.scale = scaleFor(smoke)
	pairs := d.pairs
	if smoke {
		pairs = pairs[:2]
	}
	d.cells = d.cells[:0]
	for _, pr := range pairs {
		c, err := newCell(pr[0], pr[1], d.scale, seed)
		if err != nil {
			return err
		}
		d.cells = append(d.cells, c)
	}
	return nil
}

func (d *direct) pass() passOut {
	var out passOut
	for i := range d.cells {
		res, err := d.exec(&d.cells[i], d.observed)
		var cyc int64
		if err == nil {
			cyc = res.Cycles()
		}
		out.add(res, cyc, err)
	}
	return out
}

// lineCounter counts the JSONL windows the sampler writes.
type lineCounter struct{ n int64 }

func (l *lineCounter) Write(p []byte) (int, error) {
	for _, b := range p {
		if b == '\n' {
			l.n++
		}
	}
	return len(p), nil
}

// observers builds the full attachment set of one observed cell.
func observers(windows io.Writer) (*trace.Sink, kernels.ExecOpts) {
	sink := trace.NewSink(trace.Config{SampleTo: windows, EventsTo: io.Discard})
	return sink, kernels.ExecOpts{Causal: true, Trace: sink, Obs: metrics.NewPlane("")}
}

func (d *direct) exec(c *cell, observed bool) (*kernels.Result, error) {
	if !observed {
		return kernels.ExecuteOpts(c.bench, c.p, c.sw, c.hw, kernels.ExecOpts{})
	}
	sink, opts := observers(io.Discard)
	res, err := kernels.ExecuteOpts(c.bench, c.p, c.sw, c.hw, opts)
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return res, reportOf(res, d.scale).Write(io.Discard)
}

// reportOf builds the cell's report.json as the harness and rocksim do.
func reportOf(res *kernels.Result, scale kernels.Scale) *analyze.Report {
	rep := analyze.New(analyze.Meta{Bench: res.Bench, Config: res.Config, Scale: scale.String()},
		res.Stats, res.Groups, res.HW)
	rep.CriticalPath = res.Causal
	return rep
}

// --- sweep_tiny: figure regeneration through the harness ---

type sweep struct {
	benches []string // nil = all PolyBench
	tmp     string   // scratch root for per-pass report directories
}

func (s *sweep) build(seed int64, smoke bool) error {
	// The harness sizes cells with Benchmark.Defaults, so the seed does not
	// reach this workload: figure sweeps have no input knob to vary.
	s.benches = nil
	if smoke {
		s.benches = []string{"mvt", "gesummv"}
	}
	return nil
}

// sweepFigs are the figure generators one pass regenerates.
var sweepFigs = []struct {
	name string
	fn   func(*harness.Runner, io.Writer) error
}{
	{"harness.Fig10", (*harness.Runner).Fig10},
	{"harness.Fig12", (*harness.Runner).Fig12},
	{"harness.Fig14", (*harness.Runner).Fig14},
	{"harness.Fig16", (*harness.Runner).Fig16},
}

// run regenerates the figures on a fresh runner that writes its per-cell
// reports under dir, each generator call wrapped by around.
func (s *sweep) run(jobs int, dir string, around wrapFn) (*harness.Runner, passOut) {
	var out passOut
	r := harness.New(harness.Options{Scale: kernels.Tiny, Jobs: jobs, ReportDir: dir,
		Out: io.Discard, Benches: s.benches})
	for _, f := range sweepFigs {
		var err error
		around(0, f.name, func() { err = f.fn(r, io.Discard) })
		out.attempted++
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perf: %s failed: %v\n", f.name, err)
		}
	}
	out.cycles, _ = r.Throughput()
	return r, out
}

// reportDir makes a fresh report directory for one sweep; the caller
// removes it.
func (s *sweep) reportDir() string {
	dir, err := os.MkdirTemp(s.tmp, "reports-")
	if err != nil {
		fatalf("sweep_tiny: %v", err)
	}
	return dir
}

func (s *sweep) pass() passOut {
	dir := s.reportDir()
	defer os.RemoveAll(dir)
	_, out := s.run(1, dir, untraced)
	return out
}

// --- fault_tiny: the recovery ladder ---

type ladder struct{ cells []cell }

// ladderConfigs mirrors the harness fault figures' Table 3 rows.
var ladderConfigs = []string{"NV", "V4", "V16"}

func (l *ladder) build(seed int64, smoke bool) error {
	l.cells = l.cells[:0]
	hw := config.ManycoreDefault()
	// Fault times are placed relative to the fault-free runtime, as FigFault
	// and FigNetFault place them, so the base runs belong to set-up.
	start := func(c *cell) (int64, error) {
		fr, err := kernels.ExecuteWithFaultsOpts(c.bench, c.p, c.sw, c.hw, nil, kernels.ExecOpts{})
		if err != nil {
			return 0, fmt.Errorf("fault_tiny base %s: %w", c, err)
		}
		if s := fr.TotalCycles / 4; s >= 1 {
			return s, nil
		}
		return 1, nil
	}
	add := func(bench string, plans func(start int64) []*fault.Plan) error {
		for _, cfg := range ladderConfigs {
			c, err := newCell(bench, cfg, kernels.Tiny, seed)
			if err != nil {
				return err
			}
			st, err := start(&c)
			if err != nil {
				return err
			}
			for _, p := range plans(st) {
				c.plan = p
				l.cells = append(l.cells, c)
			}
		}
		return nil
	}
	err := add("mvt", func(st int64) []*fault.Plan {
		var ps []*fault.Plan
		for _, k := range []int{1, 2, 4, 8} {
			ps = append(ps, fault.KillPlan(faultPlanSeed, k, hw.Cores, st, 101))
		}
		return ps
	})
	if err != nil {
		return err
	}
	if smoke {
		l.cells = l.cells[:2]
		return nil
	}
	for _, bench := range []string{"mvt", "gemm", "2dconv", "gesummv"} {
		err := add(bench, func(st int64) []*fault.Plan {
			var ps []*fault.Plan
			for _, cuts := range []int{1, 2} {
				ps = append(ps, fault.Merge(
					fault.LinkPlan(faultPlanSeed, cuts, hw.MeshWidth, hw.MeshHeight, st, 101),
					fault.BankPlan(faultPlanSeed, 1, hw.LLCBanks, st+int64(cuts)*101, 101)))
			}
			return ps
		})
		if err != nil {
			return err
		}
	}
	for _, bench := range []string{"mvt", "gemm"} {
		c, err := newCell(bench, "V4", kernels.Tiny, seed)
		if err != nil {
			return err
		}
		c.probe = true
		l.cells = append(l.cells, c)
	}
	return nil
}

// ladderSums are the recovery counts of one pass.
type ladderSums struct {
	attempts, totalCycles, frameReplays, ckptRestarts, fullRestarts int64
}

func (s *ladderSums) add(fr *kernels.FaultResult) {
	s.attempts += int64(fr.Attempts)
	s.totalCycles += fr.TotalCycles
	s.frameReplays += fr.FrameReplays
	s.ckptRestarts += int64(fr.CheckpointRestarts)
	s.fullRestarts += int64(fr.FullRestarts)
}

// exec runs one ladder cell. The final attempt's Result is what the serial
// reference check passed on.
func (l *ladder) exec(c *cell, opts kernels.ExecOpts, sums *ladderSums) (*kernels.Result, error) {
	if c.probe {
		pr, err := kernels.ProbeReplayWinOpts(c.bench, c.p, c.sw, c.hw, opts)
		if err != nil {
			return nil, err
		}
		sums.add(pr.Ladder)
		sums.add(pr.Restart)
		return pr.Ladder.Result, nil
	}
	fr, err := kernels.ExecuteWithFaultsOpts(c.bench, c.p, c.sw, c.hw, c.plan, opts)
	if err != nil {
		return nil, err
	}
	sums.add(fr)
	return fr.Result, nil
}

func (l *ladder) run(opts kernels.ExecOpts, around wrapFn) (passOut, ladderSums) {
	var out passOut
	var sums ladderSums
	for i := range l.cells {
		c := &l.cells[i]
		name := "kernels.ExecuteWithFaultsOpts"
		if c.probe {
			name = "kernels.ProbeReplayWinOpts"
		}
		var res *kernels.Result
		var err error
		before := sums.totalCycles
		around(i, name, func() { res, err = l.exec(c, opts, &sums) })
		out.add(res, sums.totalCycles-before, err)
	}
	return out, sums
}

func (l *ladder) pass() passOut {
	out, _ := l.run(kernels.ExecOpts{}, untraced)
	return out
}

// --- shared helpers ---

// statsHash48 is a 48-bit FNV-1a of the cell's report.json with the wall
// clock fields zeroed: any simulated statistic that moves moves it, and 48
// bits survive a float64 round trip.
func statsHash48(res *kernels.Result, scale kernels.Scale) uint64 {
	st := *res.Stats
	st.WallNs = 0
	bare := *res
	bare.Stats, bare.Causal = &st, nil
	h := fnv.New64a()
	_ = reportOf(&bare, scale).Write(h) // hash.Hash never fails a write
	return h.Sum64() & (1<<48 - 1)
}

// modelSums accumulates the modelled-component counts of a pass from each
// cell's stats.Machine.
type modelSums struct {
	cycles, tileCycles                             int64
	instrs, coreCycles, issued, frame, inet, backp int64
	inetFwd, llcAcc, llcMiss, llcWide, dramBusy    int64
	flits, hops, fastForwards, skipped             int64
	hash                                           uint64
	cells                                          int
}

func (m *modelSums) add(res *kernels.Result, scale kernels.Scale) {
	st := res.Stats
	m.cells++
	m.cycles += st.Cycles
	m.tileCycles += st.Cycles * int64(len(st.Cores))
	for i := range st.Cores {
		c := &st.Cores[i]
		m.instrs += c.Instrs
		m.issued += c.Issued()
		m.frame += c.Stall(stats.StallFrame)
		m.inet += c.Stall(stats.StallInet)
		m.backp += c.Stall(stats.StallBackpressure)
		m.coreCycles += c.Issued() + c.Stall(stats.StallFrame) + c.Stall(stats.StallInet) +
			c.Stall(stats.StallBackpressure) + c.Stall(stats.StallOther)
		m.inetFwd += c.InetForwards
	}
	for i := range st.LLCs {
		m.llcAcc += st.LLCs[i].Accesses
		m.llcMiss += st.LLCs[i].Misses
		m.llcWide += st.LLCs[i].WideReqs
	}
	m.dramBusy += st.DramBusy
	m.flits += st.NocFlits
	m.hops += st.NocHops
	m.fastForwards += st.FastForwards
	m.skipped += st.SkippedCycles
	// Order-dependent fold of the per-cell hashes, still 48 bits.
	h := fnv.New64a()
	_, _ = h.Write(binary.LittleEndian.AppendUint64(
		binary.LittleEndian.AppendUint64(nil, m.hash), statsHash48(res, scale)))
	m.hash = h.Sum64() & (1<<48 - 1)
}

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (m *modelSums) fill(L layers) {
	L["cpu.instrs"] = float64(m.instrs)
	L["cpu.issued_frac"] = frac(m.issued, m.coreCycles)
	L["cpu.stall_frame_frac"] = frac(m.frame, m.coreCycles)
	L["cpu.stall_inet_frac"] = frac(m.inet, m.coreCycles)
	L["cpu.stall_backpressure_frac"] = frac(m.backp, m.coreCycles)
	L["inet.forwards"] = float64(m.inetFwd)
	L["mem.llc_accesses"] = float64(m.llcAcc)
	L["mem.llc_miss_rate"] = frac(m.llcMiss, m.llcAcc)
	L["mem.llc_wide_reqs"] = float64(m.llcWide)
	L["mem.dram_busy_frac"] = frac(m.dramBusy, m.cycles)
	L["noc.flits"] = float64(m.flits)
	L["noc.hops"] = float64(m.hops)
	L["noc.hops_per_cycle"] = frac(m.hops, m.cycles)
	L["machine.fast_forwards"] = float64(m.fastForwards)
	L["machine.skipped_cycles"] = float64(m.skipped)
	L["machine.stats_hash48"] = float64(m.hash)
}

// memDelta measures fn's heap traffic and wall time.
type memDelta struct {
	wall          time.Duration
	mallocs, size uint64
}

func measure(fn func()) memDelta {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&b)
	return memDelta{wall: wall, mallocs: b.Mallocs - a.Mallocs, size: b.TotalAlloc - a.TotalAlloc}
}
