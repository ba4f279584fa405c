package machine_test

import (
	"io"
	"runtime"
	"runtime/debug"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/kernels"
	"rockcress/internal/machine"
	"rockcress/internal/metrics"
	"rockcress/internal/trace"
)

// buildForAllocTest assembles a ready-to-run machine for one kernel and
// software preset, mirroring kernels.ExecuteOpts up to (but excluding) Run.
// obs, when non-nil, binds the machine to a live observability plane; sink,
// when non-nil, attaches a trace sink.
func buildForAllocTest(t *testing.T, benchName, cfgName string, obs *metrics.Plane, sink *trace.Sink) *machine.Machine {
	t.Helper()
	return buildMachine(t, benchName, cfgName, machine.Params{Obs: obs, Trace: sink})
}

// buildMachine is buildForAllocTest for any attachment: it fills mp's
// program, geometry and memory size and leaves the rest (a fault plan, an
// engine width) as given.
func buildMachine(t *testing.T, benchName, cfgName string, mp machine.Params) *machine.Machine {
	t.Helper()
	mp, img := benchParams(t, benchName, cfgName, config.ManycoreDefault(), mp)
	m, err := machine.New(mp)
	if err != nil {
		t.Fatal(err)
	}
	img.Apply(m.Global)
	return m
}

// benchParams builds one kernel's Tiny program for a software preset on the
// fabric base and fills mp's program, geometry and memory size with it. The
// input image still to load into the machine comes back beside it.
func benchParams(t *testing.T, benchName, cfgName string, base config.Manycore, mp machine.Params) (machine.Params, *kernels.Image) {
	t.Helper()
	return benchParamsAt(t, benchName, cfgName, kernels.Tiny, base, mp)
}

// benchParamsAt is benchParams at any input scale.
func benchParamsAt(t *testing.T, benchName, cfgName string, scale kernels.Scale, base config.Manycore, mp machine.Params) (machine.Params, *kernels.Image) {
	t.Helper()
	bench, err := kernels.Get(benchName)
	if err != nil {
		t.Fatal(err)
	}
	p := bench.Defaults(scale)
	sw, err := config.Preset(cfgName)
	if err != nil {
		t.Fatal(err)
	}
	hw := sw.Apply(base)
	groups, err := kernels.GroupsFor(sw, hw)
	if err != nil {
		t.Fatal(err)
	}
	img, err := bench.Prepare(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := kernels.NewCtx(p, img, sw, hw, groups)
	if err := bench.Build(ctx); err != nil {
		t.Fatal(err)
	}
	prog, err := ctx.B.Build()
	if err != nil {
		t.Fatal(err)
	}
	memBytes := img.SizeBytes()
	if memBytes < machine.DefaultMemBytes {
		memBytes = machine.DefaultMemBytes
	}
	mp.Cfg, mp.Prog, mp.Groups, mp.MemBytes = hw, prog, groups, memBytes
	return mp, img
}

// newAllocs counts the allocations of one machine.New over mp. Each built
// machine hands its store back, so every call after the first finds one in
// the pool, as a sweep's next cell does.
func newAllocs(t *testing.T, mp machine.Params) float64 {
	t.Helper()
	return testing.AllocsPerRun(20, func() {
		m, err := machine.New(mp)
		if err != nil {
			t.Fatal(err)
		}
		m.Global.Recycle()
	})
}

// TestMachineNewAllocs holds construction to one backing allocation per
// component kind: LLC lines, banks, scratchpads, cores, I-caches, vector
// registers, inet queues, engine wakers and shard lists each come from a
// slab sized once, so what a machine costs to build does not grow with its
// tile or bank count, nor with the program's length (lowering costs two
// allocations, cpu.TestLowerProgramAllocs). What remains is fixed
// per-machine plumbing.
func TestMachineNewAllocs(t *testing.T) {
	const maxAllocs = 200
	var nv machine.Params
	var nvAllocs float64
	for _, cfg := range []string{"NV", "V4", "V16"} {
		mp, _ := benchParams(t, "mvt", cfg, config.ManycoreDefault(), machine.Params{})
		n := newAllocs(t, mp)
		t.Logf("mvt Tiny %s, 8x8 / 16 banks: %.0f allocs per machine.New", cfg, n)
		if n > maxAllocs {
			t.Errorf("mvt %s: machine.New allocates %.0f times, want <= %d", cfg, n, maxAllocs)
		}
		if cfg == "NV" {
			nv, nvAllocs = mp, n
		}
	}
	// The same NV program on four times the tiles and twice the banks.
	big := &nv.Cfg
	big.MeshWidth, big.MeshHeight, big.Cores = 16, 16, 256
	big.LLCBanks, big.LLCBytes = 32, 2*big.LLCBytes
	n := newAllocs(t, nv)
	t.Logf("mvt Tiny NV, 16x16 / 32 banks: %.0f allocs per machine.New", n)
	if n > 1.1*nvAllocs {
		t.Errorf("16x16 machine.New allocates %.0f times, %.2fx the 8x8 count %.0f: construction grows with the fabric",
			n, n/nvAllocs, nvAllocs)
	}
}

// mallocs returns the number of heap allocations the process has made.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runAllocs builds a fresh machine for one kernel and preset at scale and
// counts the allocations of its whole Run. The count is the process's, so
// a runtime allocation inside the window (the scheduler starting an OS
// thread, runtime.newm, adds about six) can raise it; minRunAllocs
// discards those.
func runAllocs(t *testing.T, benchName, cfgName string, scale kernels.Scale) uint64 {
	t.Helper()
	mp, img := benchParamsAt(t, benchName, cfgName, scale, config.ManycoreDefault(), machine.Params{})
	m, err := machine.New(mp)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Global.Recycle()
	img.Apply(m.Global)
	// No collection inside the window: one mid-run adds allocations that
	// are not the machine's (under the race detector a Small run is long
	// enough to see one).
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := mallocs()
	if _, err := m.Run(1 << 40); err != nil {
		t.Fatal(err)
	}
	return mallocs() - before
}

// minRunAllocs is the fewest allocations of runAllocs over three fresh
// machines: every run allocates what the machine needs, and only some
// also pay for the runtime's own work.
func minRunAllocs(t *testing.T, benchName, cfgName string, scale kernels.Scale) uint64 {
	t.Helper()
	n := runAllocs(t, benchName, cfgName, scale)
	for range 2 {
		n = min(n, runAllocs(t, benchName, cfgName, scale))
	}
	return n
}

// TestColdRunAllocs holds a fresh machine's first run to the growth of its
// deepest buffers. The memory system's tick-time buffers (LLC job rings,
// job word rings and MSHR event slabs, the DRAM queues, the mesh's move
// list) start as pieces of construction slabs and double only when a
// structure outgrows every depth it has held, so what a cold run allocates
// depends on its deepest backlog, not on how many accesses it makes: each
// Small cell allocates at most twice what the same Tiny cell does, and at
// most a quarter of what the per-buffer pools it replaced allocated (was).
// Each count is the minimum over three fresh machines (minRunAllocs).
// Not parallel: it reads the process's allocation count.
func TestColdRunAllocs(t *testing.T) {
	// One unmeasured run first: the process's first run after a
	// collection pays one-time runtime allocations. Every measured machine
	// is still a fresh one.
	runAllocs(t, "mvt", "NV", kernels.Tiny)
	for _, tc := range []struct {
		bench, cfg string
		was        uint64 // per-buffer pools, Small
	}{
		{"mvt", "NV", 532},
		{"gemm", "V4", 539},
		{"mvt", "V16", 758},
		{"2dconv", "NV_PF", 851},
		{"syrk", "V4_LL_PCV", 412},
	} {
		tiny := minRunAllocs(t, tc.bench, tc.cfg, kernels.Tiny)
		small := minRunAllocs(t, tc.bench, tc.cfg, kernels.Small)
		t.Logf("%s/%s cold Run allocations: Tiny %d, Small %d (was %d)", tc.bench, tc.cfg, tiny, small, tc.was)
		if small > tc.was/4 {
			t.Errorf("%s/%s: a cold Small run allocates %d times, want <= %d (a quarter of %d)",
				tc.bench, tc.cfg, small, tc.was/4, tc.was)
		}
		if small > 2*tiny {
			t.Errorf("%s/%s: a cold Small run allocates %d times, %.1fx the Tiny run's %d: allocation grows with the run",
				tc.bench, tc.cfg, small, float64(small)/float64(tiny), tiny)
		}
	}
}

// TestMachineNewAllocsWithPlane holds binding a machine to the live plane
// to a cost per series family, not per series: what machine.New allocates
// with a plane, over what it allocates without one. Re-binding to a warm
// plane — every series already registered, as for a sweep's next cell or a
// fault ladder's next attempt — finds each series by value and allocates
// next to nothing; a fresh 16x16 plane, with four times the tile and link
// series and twice the bank series of an 8x8, costs at most twice as much.
func TestMachineNewAllocsWithPlane(t *testing.T) {
	small, _ := benchParams(t, "mvt", "NV", config.ManycoreDefault(), machine.Params{})
	big := small
	big.Cfg.MeshWidth, big.Cfg.MeshHeight, big.Cfg.Cores = 16, 16, 256
	big.Cfg.LLCBanks, big.Cfg.LLCBytes = 32, 2*big.Cfg.LLCBytes
	// bind counts what a plane adds to machine.New; plane hands each build
	// its plane.
	bind := func(mp machine.Params, plane func() *metrics.Plane) float64 {
		bare := newAllocs(t, mp)
		return testing.AllocsPerRun(20, func() {
			mp.Obs = plane()
			m, err := machine.New(mp)
			if err != nil {
				t.Fatal(err)
			}
			if !m.ObsBound() {
				t.Fatal("machine did not bind to the plane")
			}
			m.ReleaseObs()
			m.Global.Recycle()
		}) - bare
	}
	fresh := func() func() *metrics.Plane {
		planes := make([]*metrics.Plane, 21) // AllocsPerRun's warm-up run plus 20
		for i := range planes {
			planes[i] = metrics.NewPlane("")
		}
		return func() *metrics.Plane {
			p := planes[0]
			planes = planes[1:]
			return p
		}
	}
	warm := metrics.NewPlane("")
	freshSmall, freshBig := bind(small, fresh()), bind(big, fresh())
	warmSmall := bind(small, func() *metrics.Plane { return warm })
	t.Logf("plane bind allocations: 8x8 fresh %.0f, 8x8 warm %.0f, 16x16 fresh %.0f", freshSmall, warmSmall, freshBig)
	if warmSmall > 100 {
		t.Errorf("re-binding an 8x8 machine to a warm plane allocates %.0f times, want <= 100", warmSmall)
	}
	if freshBig > 2*freshSmall {
		t.Errorf("a fresh 16x16 bind allocates %.0f times, %.2fx the 8x8 bind's %.0f: binding grows with the series",
			freshBig, freshBig/freshSmall, freshSmall)
	}
}

// TestSteadyStateAllocs single-steps busy machines and asserts the steady
// state allocates nothing per cycle: pre-lowered dispatch, arena-backed
// flits, and pooled frames mean a warm machine's tick path never touches
// the heap. Every tick-time buffer starts as a piece of a construction
// slab; the warm-up takes the hot banks past theirs (an LLC bank's job
// ring, word ring and MSHR event slab double when a backlog outgrows
// them, TestColdRunAllocs) before the measured window.
func TestSteadyStateAllocs(t *testing.T) {
	cases := []struct{ bench, cfg string }{
		{"mvt", "NV"},  // scalar MIMD: heavy request/response mesh traffic
		{"gemm", "V4"}, // vector groups: expanders, frames, wide responses
	}
	for _, tc := range cases {
		t.Run(tc.bench+"/"+tc.cfg, func(t *testing.T) {
			m := buildForAllocTest(t, tc.bench, tc.cfg, nil, nil)
			for i := 0; i < 3000; i++ {
				m.Step()
			}
			avg := testing.AllocsPerRun(1000, func() { m.Step() })
			if avg != 0 {
				t.Errorf("steady-state tick allocates: %.3f allocs/cycle", avg)
			}
		})
	}
}

// TestSteadyStateAllocsWithPlane re-runs the allocation gate with the full
// observability plane attached — registry cells registered, machine bound,
// and a live introspection listener up. Publishing the registry must be
// plain atomic stores into pre-registered cells: the plane may not cost the
// steady state a single allocation. (AllocsPerRun measures process-global
// allocations, so the listener is up but idle during the measured window;
// concurrent scrape safety is the conservation test's job.)
func TestSteadyStateAllocsWithPlane(t *testing.T) {
	plane := metrics.NewPlane("")
	srv, err := metrics.Serve("127.0.0.1:0", plane)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cases := []struct{ bench, cfg string }{
		{"mvt", "NV"},
		{"gemm", "V4"},
	}
	for _, tc := range cases {
		t.Run(tc.bench+"/"+tc.cfg, func(t *testing.T) {
			m := buildForAllocTest(t, tc.bench, tc.cfg, plane, nil)
			defer m.ReleaseObs()
			if !m.ObsBound() {
				t.Fatal("machine did not bind to the plane")
			}
			for i := 0; i < 3000; i++ {
				m.Step()
			}
			m.PublishMetrics()
			avg := testing.AllocsPerRun(1000, func() {
				m.Step()
				m.PublishMetrics()
			})
			if avg != 0 {
				t.Errorf("steady-state tick+publish allocates: %.3f allocs/cycle", avg)
			}
		})
	}
}

// TestSteadyStateAllocsWithSampler repeats the gate through the run loop
// with every window consumer attached: a JSONL sampler and a bound plane,
// whose flight ring keeps the slot holder's windows. Step-driven gates never
// reach observe, so this one drives RunUntil across window boundaries. Once
// every ring slot holds a line, a window is one encode into the sampler's
// reused line, one write and one copy into a slot: it costs nothing.
func TestSteadyStateAllocsWithSampler(t *testing.T) {
	const every, perRun = 16, 4
	sink := trace.NewSink(trace.Config{SampleTo: io.Discard, SampleEvery: every})
	plane := metrics.NewPlane("")
	m := buildForAllocTest(t, "mvt", "V4", plane, sink)
	defer m.ReleaseObs()
	if !m.ObsBound() {
		t.Fatal("machine did not bind to the plane")
	}
	if err := m.RunUntil(2000); err != nil { // 125 windows: past the ring's 64 slots
		t.Fatal(err)
	}
	if held, _, _ := plane.Flight().Counts(); held != 64 {
		t.Fatalf("flight ring holds %d windows after the warm-up, want a full 64", held)
	}
	start := m.Now()
	stop := start
	avg := testing.AllocsPerRun(8, func() {
		stop += perRun * every
		if err := m.RunUntil(stop); err != nil {
			t.Fatal(err)
		}
	})
	// mvt/V4 at Tiny runs 3152 cycles: the machine is still busy here.
	if windows := (m.Now() - start) / every; windows < 32 {
		t.Fatalf("measured %d windows, want >= 32", windows)
	}
	if avg != 0 {
		t.Errorf("windows allocate: %.2f allocs per %d windows", avg, perRun)
	}
}

// TestSteadyStateAllocsWithRecorder repeats the gate with an event recorder
// attached: an emit is a few words stored in the ring, so once the ring has
// its memory (a small one, wrapped during the warm-up) a V4 machine emitting
// vload, fan-out and frame events still never touches the heap. mvt/V4 at
// Tiny runs 3152 cycles, so the measured window is inside the kernel.
func TestSteadyStateAllocsWithRecorder(t *testing.T) {
	sink := trace.NewSink(trace.Config{EventsTo: io.Discard, EventCap: 256})
	m := buildForAllocTest(t, "mvt", "V4", nil, sink)
	for i := 0; i < 1500; i++ {
		m.Step()
	}
	rec := sink.Recorder()
	before := int64(rec.Len()) + rec.Dropped()
	if rec.Dropped() == 0 {
		t.Fatalf("warm-up emitted %d events, too few to wrap the ring", before)
	}
	avg := testing.AllocsPerRun(1000, func() { m.Step() })
	if avg != 0 {
		t.Errorf("steady-state tick with a recorder allocates: %.3f allocs/cycle", avg)
	}
	if emitted := int64(rec.Len()) + rec.Dropped() - before; emitted < 1000 {
		t.Errorf("measured window emitted %d events, want a busy recorder (>= 1000)", emitted)
	}
}

// TestSteadyStateAllocsWithCausal repeats the gate with the causal profiler
// attached: every request and response flit opens a journey in the
// recorder's slab, and a warm slab recycles its entries instead of growing.
func TestSteadyStateAllocsWithCausal(t *testing.T) {
	for _, tc := range []struct{ bench, cfg string }{{"mvt", "NV"}, {"mvt", "V4"}} {
		t.Run(tc.bench+"/"+tc.cfg, func(t *testing.T) {
			m := buildMachine(t, tc.bench, tc.cfg, machine.Params{Causal: true})
			for i := 0; i < 1500; i++ {
				m.Step()
			}
			if avg := testing.AllocsPerRun(1000, func() { m.Step() }); avg != 0 {
				t.Errorf("steady-state tick with causal recording allocates: %.3f allocs/cycle", avg)
			}
		})
	}
}

// TestGroupArriveAllocs: a formation arrival runs in the core stage on every
// vconfig, and costs no allocation.
func TestGroupArriveAllocs(t *testing.T) {
	m := buildForAllocTest(t, "mvt", "V4", nil, nil)
	defer m.Global.Recycle()
	tile := m.Groups[0].Scalar
	if avg := testing.AllocsPerRun(100, func() { m.GroupArrive(tile) }); avg != 0 {
		t.Errorf("GroupArrive allocates: %.2f allocs per arrival", avg)
	}
}

// totalAlloc returns the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestRejectedFaultPlanAllocates: a fault plan that does not fit the fabric
// (routers 0 and 9 of an 8x8 mesh are not neighbours) is refused before New
// builds anything, and the pooled store stays in the pool for the next
// machine instead of being dropped. Not parallel: it reads the process's
// allocation total.
func TestRejectedFaultPlanAllocates(t *testing.T) {
	mp, _ := benchParams(t, "mvt", "NV", config.ManycoreDefault(), machine.Params{})
	m, err := machine.New(mp)
	if err != nil {
		t.Fatal(err)
	}
	m.Global.Recycle() // a store in the pool
	bad := mp
	if bad.Faults, err = fault.Parse("cutlink@5:0>9"); err != nil {
		t.Fatal(err)
	}
	before := totalAlloc()
	if _, err := machine.New(bad); err == nil {
		t.Fatal("machine.New accepted a cut link between routers that are not neighbours")
	}
	if n := totalAlloc() - before; n >= 64<<10 {
		t.Errorf("rejected machine.New allocated %d bytes, want < 64 KiB", n)
	}
	before = totalAlloc()
	m, err = machine.New(mp)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Global.Recycle()
	if n := totalAlloc() - before; n >= 8<<20 {
		t.Errorf("machine.New after a rejected one allocated %d bytes, want < 8 MiB: the pooled store was lost", n)
	}
}
