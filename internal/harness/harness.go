// Package harness regenerates the paper's evaluation: every table and
// figure in §5-§6 has a generator that runs the needed benchmark x
// configuration simulations (cached across figures) and prints the rows or
// series the paper plots. Absolute cycle counts differ from the paper's
// gem5 testbed; the shapes — who wins, by what factor, where crossovers
// fall — are the reproduction target (see EXPERIMENTS.md).
package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rockcress/internal/analyze"
	"rockcress/internal/config"
	"rockcress/internal/kernels"
	"rockcress/internal/lifecycle"
	"rockcress/internal/metrics"
	"rockcress/internal/trace"
)

// Options steers a harness session.
type Options struct {
	// What every simulation the runner starts shares: the cycle budget
	// (DefaultMaxCycles when 0), cancellation, the wall budget per
	// simulation, the live plane (sweep progress, the per-machine series and
	// the flight recorder, fed by the slot-holding machine's windows) and the
	// causal profiler (a critical_path section in each report). None of them
	// changes a printed table or a cycle count.
	MaxCycles  int64
	Ctx        context.Context
	WallBudget time.Duration
	Obs        *metrics.Plane
	Causal     bool

	Scale   kernels.Scale
	Out     io.Writer
	Verbose bool     // print per-run progress
	Benches []string // subset filter (nil = all PolyBench)

	// Jobs bounds how many independent simulations a figure sweep runs
	// concurrently (rockbench -j). 0 means GOMAXPROCS. Output ordering,
	// cache contents, and every simulated cycle count are independent of
	// the value: each machine instance runs its own serial engine, and
	// results are committed in sweep order.
	Jobs int

	// TelemetryDir, when set, dumps per-run windowed telemetry (JSONL) into
	// the directory, one file per cache key, so one per simulation (see
	// resolve). Each simulation gets its own
	// private sink, so fetch's bounded pool stays safe; duplicate runs
	// of the same key (a cache race) write byte-identical files. Cycle
	// counts are unchanged — the sampler only reads counters.
	TelemetryDir string
	// SampleEvery is the size in cycles of the TelemetryDir windows
	// (default trace.DefaultSampleEvery).
	SampleEvery int64

	// ReportDir, when set, writes one canonical per-run report
	// (rockdoctor's input format) per cache key into the directory. GPU
	// runs have no machine counters and are skipped. Like telemetry,
	// reports only read finished-run counters: cycle counts are unchanged.
	ReportDir string

	// Journal, when non-nil, receives every newly computed cell result:
	// the first-wins cache made persistent. Seed it from a previous
	// interrupted sweep with SeedJournal for -resume. The caller owns
	// Close and should surface Journal.Err at exit.
	Journal *lifecycle.Journal
}

// Runner executes and caches simulations.
type Runner struct {
	opts  Options
	mu    sync.Mutex // guards cache (and journaled set) across concurrent sweep jobs
	cache map[string]*kernels.Result
	// journaled marks keys already present in the journal (seeded from a
	// previous run), so resumed cells are not appended a second time.
	journaled map[string]bool
	// Simulated-throughput meter: total simulated cycles and host run-loop
	// time across this runner's committed (not seeded) cells. Guarded by mu.
	simCycles int64
	simWallNs int64
}

// New creates a runner.
func New(opts Options) *Runner {
	if opts.MaxCycles == 0 {
		opts.MaxCycles = kernels.DefaultMaxCycles
	}
	return &Runner{opts: opts, cache: map[string]*kernels.Result{},
		journaled: map[string]bool{}}
}

// SeedJournal pre-loads the cache from a previous run's journal entries
// (-resume): each successfully journaled cell becomes a cache hit, so the
// resumed sweep re-runs only the missing cells and the final tables come
// out byte-identical to an uninterrupted run (the stored result is the full
// kernels.Result; Go's JSON round-trip of float64 is exact). Cells that
// were journaled as failures are not seeded — resume retries them. Returns
// how many cells were seeded.
func (r *Runner) SeedJournal(entries []lifecycle.JournalEntry) (int, error) {
	n := 0
	for _, e := range entries {
		if e.Err != "" || len(e.Result) == 0 {
			continue
		}
		var res kernels.Result
		if err := json.Unmarshal(e.Result, &res); err != nil {
			return n, fmt.Errorf("harness: journal entry %s: %w", e.Key, err)
		}
		r.mu.Lock()
		if _, ok := r.cache[e.Key]; !ok {
			r.cache[e.Key] = &res
			r.journaled[e.Key] = true
			n++
		}
		r.mu.Unlock()
	}
	return n, nil
}

// HWMod tweaks the hardware configuration for sensitivity studies.
type HWMod struct {
	Name string
	Fn   func(*config.Manycore)
}

func (r *Runner) benches() []kernels.Benchmark {
	if len(r.opts.Benches) == 0 {
		return kernels.PolyBench()
	}
	var out []kernels.Benchmark
	for _, n := range r.opts.Benches {
		b, err := kernels.Get(n)
		if err == nil {
			out = append(out, b)
		}
	}
	return out
}

// effectiveSW substitutes the closest valid configuration when a benchmark
// cannot implement a row (paper §6.2: gramschm cannot use SIMD, so PCV_PF
// maps to NV_PF, V*_PCV to V*).
func effectiveSW(bench string, sw config.Software) config.Software {
	if sw.SIMD && !kernels.SupportsSIMD(bench) {
		sw.SIMD = false
		switch {
		case sw.Style == config.StyleNVPF:
			sw.Name = "NV_PF"
		case sw.LongLines && sw.VLen == 16:
			sw.Name = "V16_LL"
		default:
			sw.Name = fmt.Sprintf("V%d", sw.VLen)
		}
	}
	return sw
}

// cell is one resolved request: the effective software and hardware of one
// simulation, and the key its result is cached (and journaled) under.
type cell struct {
	bench   kernels.Benchmark
	sw      config.Software
	hw      config.Manycore
	key     string
	modName string // the requesting modifier's name, for the -v progress line only
}

// resolve keys a request by what it simulates — bench|config|hw|scale, with
// the effective software and the modified machine — never by the modifier's
// name, so a modifier that restates the default machine is the default cell.
func (r *Runner) resolve(q runReq) cell {
	name := q.bench.Info().Name
	c := cell{bench: q.bench, sw: effectiveSW(name, q.sw), hw: config.ManycoreDefault()}
	if q.mod != nil {
		c.modName = q.mod.Name
		q.mod.Fn(&c.hw)
	}
	c.key = fmt.Sprintf("%s|%s|%s|%d", name, c.sw.Name, machineKey(c.hw), r.opts.Scale)
	return c
}

// machineKey spells a machine for the cache key: "" for the Table 1a
// default, otherwise every field that differs from it as Name=value, in
// declaration order.
func machineKey(hw config.Manycore) string {
	def := config.ManycoreDefault()
	if hw == def {
		return ""
	}
	v, d := reflect.ValueOf(hw), reflect.ValueOf(def)
	var diff []string
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); !f.Equal(d.Field(i)) {
			diff = append(diff, fmt.Sprintf("%s=%v", v.Type().Field(i).Name, f))
		}
	}
	return strings.Join(diff, ",")
}

func (r *Runner) lookup(key string) (*kernels.Result, bool) {
	r.mu.Lock()
	res, ok := r.cache[key]
	r.mu.Unlock()
	return res, ok
}

// store commits a result first-wins and feeds the throughput meter with
// every newly committed cell. A newly committed cell is appended to the
// journal (when one is attached) before store returns: a crash right after
// never loses an acknowledged cell. Append errors latch in the journal
// (Journal.Err) rather than failing the run — a sweep with a broken journal
// still finishes, it just is not resumable.
func (r *Runner) store(key string, res *kernels.Result) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.cache[key]; ok {
		return
	}
	r.cache[key] = res
	if res.Stats != nil {
		r.simCycles += res.Stats.Cycles
		r.simWallNs += res.Stats.WallNs
	}
	if r.opts.Journal != nil && !r.journaled[key] {
		r.journaled[key] = true
		_ = r.opts.Journal.Record(key, res, "") // latched in Journal.Err
	}
}

// Throughput reports the total simulated cycles of the cells this runner
// executed and committed, and the host wall time their run loops took
// (machine build and harness bookkeeping excluded; cells seeded from a
// journal count for nothing). Zero wall time means nothing ran.
func (r *Runner) Throughput() (simCycles, wallNs int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.simCycles, r.simWallNs
}

// sanitizeKey maps a cache key to the filesystem-safe stem of its report and
// telemetry files.
func sanitizeKey(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, key)
}

// execute runs one simulation, attaching a private telemetry sink when
// TelemetryDir is set and writing a per-run report when ReportDir is set. GPU runs have no machine counters and dump
// neither. Safe under fetch's bounded pool: every call owns its sink
// and files. Duplicate executions of one key (the first-wins cache keeps
// only one result) write artifacts identical except for the report's
// wall-clock fields, so the shared path stays correct. A failed telemetry
// flush or report write fails the run: a silently truncated artifact would
// poison whatever reads it later.
func (r *Runner) execute(c cell) (*kernels.Result, error) {
	var res *kernels.Result
	// Contain is the crash boundary of one sweep cell: a panic anywhere in
	// prepare/build/run (machine.Run recovers its own loop, but the paths
	// around it are otherwise bare) becomes a RunError failing this cell,
	// not the whole sweep process.
	err := lifecycle.Contain(c.bench.Info().Name, c.sw.Name, 1, func() error {
		var eerr error
		res, eerr = r.executeCell(c.bench, c.sw, c.hw, c.key)
		return eerr
	})
	if err != nil {
		return nil, err
	}
	if r.opts.ReportDir != "" && res.GPU == nil {
		if err := os.MkdirAll(r.opts.ReportDir, 0o755); err != nil {
			return nil, fmt.Errorf("harness: report dir: %w", err)
		}
		rep := r.report(res, machineKey(c.hw))
		if err := rep.WriteFile(filepath.Join(r.opts.ReportDir, sanitizeKey(c.key)+".report.json")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// execOpts is the session's share of every execution the runner starts —
// sweep cells and fault-ladder cells alike: the run fields of Options less
// Causal, which only the cells that write reports pay for.
func (r *Runner) execOpts() kernels.ExecOpts {
	o := &r.opts
	return kernels.ExecOpts{MaxCycles: o.MaxCycles, Ctx: o.Ctx, WallBudget: o.WallBudget, Obs: o.Obs}
}

// executeCell runs one simulation, writing its windowed telemetry to a JSONL
// file when the session asked for TelemetryDir.
func (r *Runner) executeCell(bench kernels.Benchmark, sw config.Software, hw config.Manycore, key string) (*kernels.Result, error) {
	opts := r.execOpts()
	opts.Causal = r.opts.Causal
	p := bench.Defaults(r.opts.Scale)
	if sw.Style == config.StyleGPU || r.opts.TelemetryDir == "" {
		return kernels.ExecuteOpts(bench, p, sw, hw, opts)
	}
	if err := os.MkdirAll(r.opts.TelemetryDir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: telemetry dir: %w", err)
	}
	f, err := os.Create(filepath.Join(r.opts.TelemetryDir, sanitizeKey(key)+".jsonl"))
	if err != nil {
		return nil, fmt.Errorf("harness: telemetry file: %w", err)
	}
	sink := trace.NewSink(trace.Config{SampleEvery: r.opts.SampleEvery, SampleTo: f})
	opts.Trace = sink
	res, err := kernels.ExecuteOpts(bench, p, sw, hw, opts)
	// Close order: the sink first (it surfaces sampler write errors the hot
	// path swallowed mid-run), then the file. The simulation error wins;
	// after that the first artifact error fails the run.
	cerr := sink.Close()
	ferr := f.Close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	if ferr != nil {
		return nil, fmt.Errorf("harness: telemetry file: %w", ferr)
	}
	return res, nil
}

// report builds the canonical per-run report for one cached result; mod is
// the machine's spelling in the cache key ("" for the default machine).
func (r *Runner) report(res *kernels.Result, mod string) *analyze.Report {
	rep := analyze.New(analyze.Meta{
		Bench: res.Bench, Config: res.Config,
		Scale: r.opts.Scale.String(), Mod: mod,
	}, res.Stats, res.Groups, res.HW)
	rep.CriticalPath = res.Causal
	rep.Build = metrics.CurrentBuild()
	return rep
}

// runReq is one sweep cell: a benchmark under a software configuration on
// an optionally modified machine. Every simulation the harness starts is
// one of these handed to fetch.
type runReq struct {
	bench kernels.Benchmark
	sw    config.Software
	mod   *HWMod
}

// req resolves a Table 3 preset name ("GPU" selects the GPU baseline) into
// a request. It is the package's one preset lookup, so an unknown name
// fails here, before anything runs.
func req(bench kernels.Benchmark, cfgName string, mod *HWMod) (runReq, error) {
	sw := kernels.GPUSoftware()
	if cfgName != "GPU" {
		var err error
		if sw, err = config.Preset(cfgName); err != nil {
			return runReq{}, err
		}
	}
	return runReq{bench: bench, sw: sw, mod: mod}, nil
}

// Run executes one benchmark under one configuration (with an optional
// hardware modification), caching by what is simulated — bench, effective
// configuration, modified machine, scale: a fetch of one request.
func (r *Runner) Run(bench kernels.Benchmark, sw config.Software, mod *HWMod) (*kernels.Result, error) {
	res, err := r.fetch([]runReq{{bench: bench, sw: sw, mod: mod}})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// RunNamed looks the Table 3 preset up and runs it.
func (r *Runner) RunNamed(bench kernels.Benchmark, cfgName string, mod *HWMod) (*kernels.Result, error) {
	q, err := req(bench, cfgName, mod)
	if err != nil {
		return nil, err
	}
	return r.Run(q.bench, q.sw, q.mod)
}

func (r *Runner) jobs() int {
	if r.opts.Jobs > 0 {
		return r.opts.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// fetch returns the result of every request, in request order, running the
// cache misses on a bounded worker pool. It is the harness's one execution
// path: figures, the baseline gate, the fault figures' base runs and Run
// all start their simulations here. Determinism: requests are deduplicated
// and committed in input order, progress lines print in input order (each
// gated on its own completion), and on failure the earliest-indexed error
// is returned after the pool drains. Simulated cycle counts cannot depend
// on Jobs at all — every machine instance is private to one simulation.
func (r *Runner) fetch(reqs []runReq) ([]*kernels.Result, error) {
	var jobs []cell
	keys := make([]string, len(reqs))
	seen := map[string]bool{}
	for i, q := range reqs {
		c := r.resolve(q)
		keys[i] = c.key
		if _, ok := r.lookup(c.key); ok || seen[c.key] {
			continue
		}
		seen[c.key] = true
		jobs = append(jobs, c)
	}
	// Live progress: the planned-cell gauge grows as sweeps enqueue work, so
	// /debug/run's ETA covers the whole figure, not just the active cells.
	r.opts.Obs.Run().AddPlanned(len(jobs))
	type outcome struct {
		res  *kernels.Result
		err  error
		secs float64
	}
	outs := make([]outcome, len(jobs))
	done := make([]chan struct{}, len(jobs))
	for i := range done {
		done[i] = make(chan struct{})
	}
	var next atomic.Int64
	for w := min(r.jobs(), len(jobs)); w > 0; w-- {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				// A canceled sweep stops claiming new cells but still closes
				// every done channel, so the drain below never hangs and the
				// cells that did finish are committed (and journaled).
				if r.opts.Ctx != nil {
					if cerr := r.opts.Ctx.Err(); cerr != nil {
						outs[i] = outcome{err: fmt.Errorf("harness: sweep canceled: %w", cerr)}
						close(done[i])
						continue
					}
				}
				start := time.Now()
				res, err := r.execute(jobs[i])
				outs[i] = outcome{res: res, err: err, secs: time.Since(start).Seconds()}
				close(done[i])
			}
		}()
	}
	var firstErr error
	for i := range jobs {
		<-done[i]
		if outs[i].err != nil {
			if firstErr == nil {
				firstErr = outs[i].err
			}
			continue
		}
		// Cells that completed are committed (and journaled, and metered)
		// even after an earlier cell failed or the sweep was canceled:
		// finished work is never forfeited, which is what makes -resume
		// cheap. Only the progress line stops at the first failure.
		r.store(jobs[i].key, outs[i].res)
		if firstErr == nil && r.opts.Verbose {
			c := jobs[i]
			fmt.Fprintf(r.opts.Out, "# %-10s %-12s %-14s %10d cycles  (%.1fs)\n",
				c.bench.Info().Name, c.sw.Name, c.modName, outs[i].res.Cycles(), outs[i].secs)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	out := make([]*kernels.Result, len(reqs))
	r.mu.Lock()
	for i, key := range keys {
		out[i] = r.cache[key]
	}
	r.mu.Unlock()
	return out, nil
}

// col is one column of a figure: a Table 3 configuration on an optionally
// modified machine, or — given several cfgs — whichever of them is fastest
// for the benchmark (the BEST_V rows of Table 3).
type col struct {
	name string
	cfgs []string
	mod  *HWMod
}

// plain makes one unmodified single-configuration column per preset name.
func plain(cfgs ...string) []col {
	cols := make([]col, len(cfgs))
	for i, c := range cfgs {
		cols[i] = col{name: c, cfgs: []string{c}}
	}
	return cols
}

// requests lists the cells behind benches x cols, bench-major with a
// best-of column's candidates side by side: the order cells run, commit
// and print their progress in.
func requests(benches []kernels.Benchmark, cols []col) ([]runReq, error) {
	var reqs []runReq
	for _, b := range benches {
		for _, c := range cols {
			for _, cfg := range c.cfgs {
				q, err := req(b, cfg, c.mod)
				if err != nil {
					return nil, err
				}
				reqs = append(reqs, q)
			}
		}
	}
	return reqs, nil
}

// grid fetches benches x cols and returns one result per (benchmark,
// column), a best-of column folded to its fastest candidate (the earliest
// on a tie). The request list is built from the columns the caller then
// reads, so what is simulated is exactly what is tabulated.
func (r *Runner) grid(benches []kernels.Benchmark, cols []col) ([][]*kernels.Result, error) {
	reqs, err := requests(benches, cols)
	if err != nil {
		return nil, err
	}
	res, err := r.fetch(reqs)
	if err != nil {
		return nil, err
	}
	g := make([][]*kernels.Result, len(benches))
	for i := range g {
		g[i] = make([]*kernels.Result, len(cols))
		for j, c := range cols {
			for _, cand := range res[:len(c.cfgs)] {
				if g[i][j] == nil || cand.Cycles() < g[i][j].Cycles() {
					g[i][j] = cand
				}
			}
			res = res[len(c.cfgs):]
		}
	}
	return g, nil
}

// bestV and bestVPCV are the derived Table 3 rows: the fastest vector
// configuration per benchmark, without and with per-core SIMD.
var (
	bestV    = col{name: "BEST_V", cfgs: []string{"V4", "V16", "V16_LL"}}
	bestVPCV = col{name: "BEST_V_PCV", cfgs: []string{"V4_PCV", "V16_PCV", "V16_LL_PCV"}}
)

// --- formatting helpers ---

type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.rows {
		line(row)
	}
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// geomean of positive values.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
