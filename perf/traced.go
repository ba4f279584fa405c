package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"rockcress/internal/causal"
	"rockcress/internal/config"
	"rockcress/internal/cpu"
	"rockcress/internal/energy"
	"rockcress/internal/harness"
	"rockcress/internal/isa"
	"rockcress/internal/kernels"
	"rockcress/internal/machine"
	"rockcress/internal/sim"
	"rockcress/internal/stats"
)

// spanMetrics maps a span name to the per-layer metric its self time feeds.
var spanMetrics = map[string]string{
	"kernels.Prepare":    "kernels.prepare_ms",
	"kernels.Build":      "kernels.build_ms",
	"Image.Apply":        "kernels.apply_ms",
	"Image.Check":        "kernels.check_ms",
	"prog.Build":         "prog.assemble_ms",
	"cpu.LowerProgram":   "cpu.lower_ms",
	"machine.New":        "machine.new_ms",
	"machine.Run":        "machine.run_ms",
	"energy.Evaluate":    "energy.evaluate_ms",
	"causal.BuildReport": "causal.build_report_ms",
	"analyze.Report":     "analyze.report_ms",
	"gpu.Execute":        "gpu.cells_ms",
}

func fillSpans(tr *tracer, from int, L layers) {
	for name, ms := range tr.selfMs(from) {
		if metric, ok := spanMetrics[name]; ok {
			L[metric] += ms
		}
	}
}

// fillProf writes the engine self-profile and what is left of the run loop
// around it. tileCycles normalises to ns per simulated tile-cycle.
func fillProf(prof *sim.Prof, runMs float64, tileCycles int64, L layers) {
	var staged float64
	for i := range prof.Stages {
		m := &prof.Stages[i]
		L["sim.stage_"+m.Name+"_ms"] = float64(m.Ns) / 1e6
		L["sim.stage_"+m.Name+"_ticks"] = float64(m.Ticks)
		L["sim.stage_"+m.Name+"_ns_per_tile_cycle"] = frac(m.Ns, tileCycles)
		staged += float64(m.Ns) / 1e6
	}
	ff := float64(prof.FastForward.Ns) / 1e6
	L["sim.fastforward_ms"] = ff
	L["sim.loop_other_ms"] = runMs - staged - ff
}

// sameStats holds a traced cell against the untraced pass: simulated time
// and every simulated statistic must be bit-identical.
func sameStats(got, want *kernels.Result, scale kernels.Scale) error {
	if got == nil || want == nil {
		return fmt.Errorf("no result to compare (traced %v, untraced %v)", got != nil, want != nil)
	}
	if got.Cycles() != want.Cycles() {
		return fmt.Errorf("%s/%s: traced %d cycles, untraced %d", got.Bench, got.Config, got.Cycles(), want.Cycles())
	}
	if g, w := statsHash48(got, scale), statsHash48(want, scale); g != w {
		return fmt.Errorf("%s/%s: traced stats hash %012x, untraced %012x", got.Bench, got.Config, g, w)
	}
	return nil
}

// checkMirror counts traced cells that diverged from ref as failures.
func checkMirror(out *passOut, ref passOut, scale kernels.Scale) {
	for i, res := range out.results {
		if res == nil || i >= len(ref.results) {
			continue // already counted as failed, or nothing to hold it against
		}
		if err := sameStats(res, ref.results[i], scale); err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perf: traced pass diverged: %v\n", err)
		}
	}
}

// tracedCell re-issues one cell as the public call sequence
// kernels.ExecuteOpts makes internally, one span per call. It must stay a
// faithful mirror of that function; checkMirror catches drift.
func (d *direct) tracedCell(tr *tracer, id int, c *cell, prof *sim.Prof, L layers) (res *kernels.Result, err error) {
	name := c.bench.Info().Name
	opts := kernels.ExecOpts{Prof: prof}
	var windows lineCounter
	if d.observed {
		sink, o := observers(&windows)
		o.Prof = prof
		opts = o
		defer func() {
			L["trace.events"] += float64(int64(sink.Recorder().Len()) + sink.Recorder().Dropped())
			if cerr := sink.Close(); err == nil {
				err = cerr
			}
			L["trace.windows"] += float64(windows.n)
		}()
	}
	tok := opts.Obs.Run().Begin(name, c.sw.Name)
	defer func() { opts.Obs.Run().End(tok, err) }()

	hw := c.sw.Apply(c.hw)
	groups, err := kernels.GroupsFor(c.sw, hw)
	if err != nil {
		return nil, err
	}
	var img *kernels.Image
	tr.do("kernels.Prepare", id, func() {
		if img, err = c.bench.Prepare(c.p); err == nil {
			err = img.Err()
		}
	})
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", c, err)
	}
	var ctx *kernels.Ctx
	tr.do("kernels.Build", id, func() {
		ctx = kernels.NewCtx(c.p, img, c.sw, hw, groups)
		err = c.bench.Build(ctx)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", c, err)
	}
	var prog *isa.Program
	tr.do("prog.Build", id, func() { prog, err = ctx.B.Build() })
	if err != nil {
		return nil, fmt.Errorf("%s: assemble: %w", c, err)
	}
	L["prog.instrs"] += float64(len(prog.Code))
	// machine.New lowers the program itself; this times that step alone on
	// the same program (extra work the untraced path does not do).
	tr.do("cpu.LowerProgram", id, func() { _ = cpu.LowerProgram(prog, hw) })

	memBytes := img.SizeBytes()
	if memBytes < machine.DefaultMemBytes {
		memBytes = machine.DefaultMemBytes
	}
	var m *machine.Machine
	tr.do("machine.New", id, func() {
		m, err = machine.New(machine.Params{Cfg: hw, Prog: prog, Groups: groups, MemBytes: memBytes,
			Trace: opts.Trace, Prof: opts.Prof, Obs: opts.Obs, Causal: opts.Causal})
	})
	if err != nil {
		return nil, fmt.Errorf("%s: machine: %w", c, err)
	}
	tr.do("Image.Apply", id, func() { img.Apply(m.Global) })
	var st *stats.Machine
	tr.do("machine.Run", id, func() { st, err = m.Run(kernels.DefaultMaxCycles) })
	opts.Obs.Run().AddSim(m.Now(), st.WallNs)
	if err != nil {
		return nil, fmt.Errorf("%s: run: %w", c, err)
	}
	tr.do("Image.Check", id, func() { err = img.Check(m.Global) })
	if err != nil {
		return nil, fmt.Errorf("%s: wrong result: %w", c, err)
	}
	tr.do("Global.Recycle", id, func() { m.Global.Recycle() })
	res = &kernels.Result{Bench: name, Config: c.sw.Name, Params: c.p, HW: hw, Stats: st, Groups: groups}
	tr.do("energy.Evaluate", id, func() { res.Energy = energy.New(hw).Evaluate(st) })
	if p := m.CausalProfile(); p != nil {
		tr.do("causal.BuildReport", id, func() { res.Causal = causal.BuildReport(p) })
	}
	if d.observed {
		tr.do("analyze.Report", id, func() { err = reportOf(res, d.scale).Write(io.Discard) })
	}
	return res, err
}

func (d *direct) traced(tr *tracer, cellBase int, ref passOut, L layers) passOut {
	var out passOut
	var sums modelSums
	prof := &sim.Prof{}
	from := len(tr.spans)
	traced := measure(func() {
		for i := range d.cells {
			c := &d.cells[i]
			var res *kernels.Result
			var err error
			tr.do("perf.cell", cellBase+i, func() { res, err = d.tracedCell(tr, cellBase+i, c, prof, L) })
			var cyc int64
			if err == nil {
				cyc = res.Cycles()
			}
			out.add(res, cyc, err)
		}
	})
	out.wall = traced.wall
	checkMirror(&out, ref, d.scale)
	for _, res := range out.results {
		if res != nil {
			sums.add(res, d.scale)
		}
	}
	fillSpans(tr, from, L)
	sums.fill(L)
	fillProf(prof, L["machine.run_ms"], sums.tileCycles, L)
	L["machine.run_ns_per_tile_cycle"] = L["machine.run_ms"] * 1e6 / float64(max(sums.tileCycles, 1))
	L["machine.new_share"] = L["machine.new_ms"] / (float64(traced.wall) / 1e6)

	if d.observed {
		L["observe.allocs_per_kcycle"] = float64(traced.mallocs) * 1e3 / float64(max(sums.cycles, 1))
		// The same cells with nothing attached, for the price of observing.
		bare := measure(func() {
			for i := range d.cells {
				if _, err := d.exec(&d.cells[i], false); err != nil {
					out.failed++
					fmt.Fprintf(os.Stderr, "perf: bare %s failed: %v\n", &d.cells[i], err)
				}
			}
		})
		L["observe.overhead_x"] = float64(traced.wall) / float64(bare.wall)
	}
	if d.probes {
		d.workersProbe(tr, cellBase, &out, traced.wall, L)
		d.bigMeshProbe(tr, cellBase, &out, L)
	}
	return out
}

// workersProbe re-runs the list on the two-worker engine: the ratio says
// what the parallel tick buys (or costs) on this host.
func (d *direct) workersProbe(tr *tracer, cellBase int, out *passOut, serial time.Duration, L layers) {
	var par passOut
	m := measure(func() {
		tr.do("perf.workers2", cellBase, func() {
			for i := range d.cells {
				c := &d.cells[i]
				res, err := kernels.ExecuteOpts(c.bench, c.p, c.sw, c.hw, kernels.ExecOpts{Workers: 2})
				par.add(res, 0, err)
			}
		})
	})
	checkMirror(&par, *out, d.scale) // outside the timed region
	out.failed += par.failed
	L["sim.workers2_x"] = float64(m.wall) / float64(serial)
}

// bigMeshProbe runs the first cell's kernel on a 16x16, 32-bank fabric:
// does host time per tile-cycle stay flat as the mesh grows? Measurement
// only; nothing is built on the large machine.
func (d *direct) bigMeshProbe(tr *tracer, cellBase int, out *passOut, L layers) {
	c := d.cells[0]
	c.p = c.bench.Defaults(kernels.Small) // Tiny inputs do not divide over 256 cores
	c.p.Seed = d.cells[0].p.Seed
	c.hw.MeshWidth, c.hw.MeshHeight, c.hw.Cores, c.hw.LLCBanks = 16, 16, 256, 32
	var res *kernels.Result
	var err error
	tr.do("perf.mesh16x16", cellBase, func() {
		res, err = kernels.ExecuteOpts(c.bench, c.p, c.sw, c.hw, kernels.ExecOpts{})
	})
	if err != nil {
		out.failed++
		fmt.Fprintf(os.Stderr, "perf: 16x16 probe %s: %v\n", &c, err)
		return
	}
	L["machine.ns_per_tile_cycle_256"] = frac(res.Stats.WallNs, res.Stats.Cycles*int64(c.hw.Cores))
}

// sweepMods rebuilds the harness's Figure 12 machine shrinks under the
// same names, so Runner.Run resolves them to the cells Fig12 cached.
func sweepMods() []*harness.HWMod {
	shrink := func(name string, w, h, banks int) *harness.HWMod {
		return &harness.HWMod{Name: name, Fn: func(c *config.Manycore) {
			c.MeshWidth, c.MeshHeight, c.Cores, c.LLCBanks = w, h, w*h, banks
		}}
	}
	return []*harness.HWMod{shrink("1", 1, 1, 2), shrink("16", 4, 4, 8), shrink("64", 8, 8, 16)}
}

func (s *sweep) traced(tr *tracer, cellBase int, ref passOut, L layers) passOut {
	from := len(tr.spans)
	dir := s.reportDir()
	defer os.RemoveAll(dir)
	var r *harness.Runner
	var out passOut
	traced := measure(func() {
		tr.do("perf.sweep", cellBase, func() {
			r, out = s.run(1, dir, tr.wrap(cellBase))
		})
	})
	out.wall = traced.wall
	if out.cycles != ref.cycles {
		out.failed++
		fmt.Fprintf(os.Stderr, "perf: sweep_tiny traced %d cycles, untraced %d\n", out.cycles, ref.cycles)
	}
	var reportBytes int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			reportBytes += info.Size()
		}
		return nil
	})
	_, runNs := r.Throughput()
	L["machine.run_ms"] = float64(runNs) / 1e6
	L["harness.nonrun_ms"] = float64(traced.wall-time.Duration(runNs)) / 1e6
	L["harness.nonrun_share"] = float64(traced.wall-time.Duration(runNs)) / float64(traced.wall)
	L["analyze.report_bytes"] = float64(reportBytes)

	// Every cell the figures ran is a cache hit now: fetch each result
	// through the public Run and time, from outside, the per-cell work the
	// harness did around the run loop.
	benches := s.benches
	if benches == nil {
		for _, b := range kernels.PolyBench() {
			benches = append(benches, b.Info().Name)
		}
	}
	var sums modelSums
	seen := map[*kernels.Result]bool{}
	id := cellBase
	visit := func(b kernels.Benchmark, cfg string, mod *harness.HWMod) {
		res, err := r.RunNamed(b, cfg, mod)
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perf: sweep_tiny fetch %s/%s: %v\n", b.Info().Name, cfg, err)
			return
		}
		if seen[res] {
			return
		}
		seen[res] = true
		id++
		if res.GPU != nil {
			p := b.Defaults(kernels.Tiny)
			tr.do("gpu.Execute", id, func() {
				_, err = kernels.ExecuteOpts(b, p, kernels.GPUSoftware(), config.ManycoreDefault(), kernels.ExecOpts{})
			})
			if err != nil {
				out.failed++
				fmt.Fprintf(os.Stderr, "perf: sweep_tiny GPU %s: %v\n", b.Info().Name, err)
			}
			return
		}
		sums.add(res, kernels.Tiny)
		tr.do("analyze.Report", id, func() { _ = reportOf(res, kernels.Tiny).Write(io.Discard) })
		tr.do("energy.Evaluate", id, func() { _ = energy.New(res.HW).Evaluate(res.Stats) })
	}
	for _, name := range benches {
		b, err := kernels.Get(name)
		if err != nil {
			out.failed++
			continue
		}
		for _, sw := range config.Presets() {
			visit(b, sw.Name, nil)
		}
		visit(b, "GPU", nil)
		for _, mod := range sweepMods() {
			visit(b, "NV_PF", mod)
		}
	}
	if cyc, _ := r.Throughput(); cyc != out.cycles {
		// A fetch missed the cache and simulated: the list above no longer
		// matches what the figures run.
		out.failed++
		fmt.Fprintf(os.Stderr, "perf: sweep_tiny fetch list drifted from Fig10/12/14/16 (%d extra cycles)\n", cyc-out.cycles)
	}
	fillSpans(tr, from, L)
	sums.fill(L)
	L["harness.cells"] = float64(len(seen))
	L["machine.run_ns_per_tile_cycle"] = frac(runNs, sums.tileCycles)

	// One sweep at Jobs: 2 against the serial one.
	j2 := measure(func() {
		tr.do("perf.jobs2", cellBase, func() {
			dir2 := s.reportDir()
			defer os.RemoveAll(dir2)
			if _, o := s.run(2, dir2, untraced); o.failed > 0 || o.cycles != out.cycles {
				out.failed++
				fmt.Fprintf(os.Stderr, "perf: sweep_tiny jobs=2: failed=%d cycles=%d\n", o.failed, o.cycles)
			}
		})
	})
	L["harness.j2_x"] = float64(j2.wall) / float64(traced.wall)
	return out
}

func (l *ladder) traced(tr *tracer, cellBase int, ref passOut, L layers) passOut {
	prof := &sim.Prof{}
	from := len(tr.spans)
	var out passOut
	var ls ladderSums
	traced := measure(func() {
		out, ls = l.run(kernels.ExecOpts{Prof: prof}, tr.wrap(cellBase))
	})
	out.wall = traced.wall
	checkMirror(&out, ref, kernels.Tiny)
	if out.cycles != ref.cycles {
		out.failed++
		fmt.Fprintf(os.Stderr, "perf: fault_tiny traced %d cycles, untraced %d\n", out.cycles, ref.cycles)
	}
	var sums modelSums
	for _, res := range out.results {
		if res != nil {
			sums.add(res, kernels.Tiny)
		}
	}
	fillSpans(tr, from, L)
	sums.fill(L)
	// The ladder's run loops are only visible through the engine profile,
	// which is cumulative over every attempt and over the runs the replay
	// probes make while searching: run_ms is its total, and the tile-cycles
	// it is normalised by are the ticks the profile counted, not the cycles
	// the returned results add up to.
	var runNs, ticks int64
	for i := range prof.Stages {
		runNs += prof.Stages[i].Ns
		ticks = max(ticks, prof.Stages[i].Ticks)
	}
	runNs += prof.FastForward.Ns
	tileCycles := ticks * int64(config.ManycoreDefault().Cores)
	L["machine.run_ms"] = float64(runNs) / 1e6
	L["machine.run_ns_per_tile_cycle"] = frac(runNs, tileCycles)
	fillProf(prof, L["machine.run_ms"], tileCycles, L)
	L["sim.loop_other_ms"] = 0 // not separable from outside: run_ms is the profile's own sum
	L["fault.attempts"] = float64(ls.attempts)
	L["fault.total_cycles"] = float64(ls.totalCycles)
	L["fault.frame_replays"] = float64(ls.frameReplays)
	L["fault.ckpt_restarts"] = float64(ls.ckptRestarts)
	L["fault.full_restarts"] = float64(ls.fullRestarts)
	L["fault.alloc_mb_per_attempt"] = float64(traced.size) / 1e6 / float64(max(ls.attempts, 1))
	return out
}
