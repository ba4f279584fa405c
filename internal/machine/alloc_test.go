package machine_test

import (
	"errors"
	"io"
	"slices"
	"testing"

	"rockcress/internal/alloctest"
	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/kernels"
	"rockcress/internal/machine"
	"rockcress/internal/metrics"
	"rockcress/internal/pool"
	"rockcress/internal/trace"
)

// buildForAllocTest assembles a ready-to-run machine for one kernel and
// software preset, mirroring kernels.ExecuteOpts up to (but excluding) Run.
// obs, when non-nil, binds the machine to an observability plane; sink,
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

// allocsPerBuild counts the allocations of one call of build, after one
// unmeasured call, with prep run before each call outside the count.
func allocsPerBuild(prep, build func()) float64 {
	prep()
	build()
	prep()
	return float64(alloctest.Count(build))
}

// newAllocs counts the allocations of one machine.New over mp and the
// Recycle that hands its slabs back. prep runs before each build, outside
// the count: pool.Drain makes every build a cold one, as a shape's first
// build in a process is; a no-op leaves the last build's slabs in the pool,
// as for a sweep's next cell.
func newAllocs(t *testing.T, mp machine.Params, prep func()) float64 {
	t.Helper()
	return allocsPerBuild(prep, func() {
		m, err := machine.New(mp)
		if err != nil {
			t.Fatal(err)
		}
		m.Recycle()
	})
}

// TestMachineNewAllocs holds construction to one backing allocation per
// component kind: LLC lines, banks, scratchpads, cores, I-caches, vector
// registers, inet queues, engine wakers and shard lists each come from a
// slab sized once, so what a machine costs to build does not grow with its
// tile or bank count, nor with the program's length (lowering costs two
// allocations, cpu.TestLowerProgramAllocs). What remains is fixed
// per-machine plumbing. The gate holds for a cold build, which allocates
// every slab, and again for a build on the last one's recycled slabs,
// which allocates only that plumbing. Not parallel: it drains the pools.
func TestMachineNewAllocs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		prep      func()
		maxAllocs float64
	}{
		{"cold", pool.Drain, 200},
		{"recycled", func() {}, 64},
	} {
		var nv machine.Params
		var nvAllocs float64
		for _, cfg := range []string{"NV", "V4", "V16"} {
			mp, _ := benchParams(t, "mvt", cfg, config.ManycoreDefault(), machine.Params{})
			n := newAllocs(t, mp, tc.prep)
			t.Logf("%s: mvt Tiny %s, 8x8 / 16 banks: %.0f allocs per machine.New", tc.name, cfg, n)
			if n > tc.maxAllocs {
				t.Errorf("%s: mvt %s: machine.New allocates %.0f times, want <= %.0f", tc.name, cfg, n, tc.maxAllocs)
			}
			if cfg == "NV" {
				nv, nvAllocs = mp, n
			}
		}
		// The same NV program on four times the tiles and twice the banks.
		big := &nv.Cfg
		big.MeshWidth, big.MeshHeight, big.Cores = 16, 16, 256
		big.LLCBanks, big.LLCBytes = 32, 2*big.LLCBytes
		n := newAllocs(t, nv, tc.prep)
		t.Logf("%s: mvt Tiny NV, 16x16 / 32 banks: %.0f allocs per machine.New", tc.name, n)
		if n > 1.1*nvAllocs {
			t.Errorf("%s: 16x16 machine.New allocates %.0f times, %.2fx the 8x8 count %.0f: construction grows with the fabric",
				tc.name, n, n/nvAllocs, nvAllocs)
		}
	}
}

// runAllocs builds a cold machine for one kernel and preset at scale and
// counts the allocations of its whole Run. pool.Drain, outside the count,
// makes every slab set the build takes a fresh one: a recycled set would
// bring the rings the last machine of the shape grew.
func runAllocs(t *testing.T, benchName, cfgName string, scale kernels.Scale) int64 {
	t.Helper()
	mp, img := benchParamsAt(t, benchName, cfgName, scale, config.ManycoreDefault(), machine.Params{})
	pool.Drain()
	m, err := machine.New(mp)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Recycle()
	img.Apply(m.Global)
	return alloctest.Count(func() {
		if _, err := m.Run(1 << 40); err != nil {
			t.Fatal(err)
		}
	})
}

// TestColdRunAllocs holds a cold machine's first run to the growth of its
// deepest buffers. The memory system's tick-time buffers (LLC job rings,
// job word rings and MSHR event slabs, the DRAM queues, the mesh's move
// list) start as pieces of construction slabs and double only when a
// structure outgrows every depth it has held, so what a cold run allocates
// depends on its deepest backlog, not on how many accesses it makes: each
// Small cell allocates at most twice what the same Tiny cell does, and at
// most a quarter of what the per-buffer pools it replaced allocated (was).
// Each count is one cold machine's: the pools are drained before each
// build (TestWarmRunAllocatesNothing holds the warm one).
func TestColdRunAllocs(t *testing.T) {
	// One unmeasured run first: a process's first run builds what is built
	// once per process. Every measured machine is still a fresh one.
	runAllocs(t, "mvt", "NV", kernels.Tiny)
	for _, tc := range []struct {
		bench, cfg string
		was        int64 // per-buffer pools, Small
	}{
		{"mvt", "NV", 532},
		{"gemm", "V4", 539},
		{"mvt", "V16", 758},
		{"2dconv", "NV_PF", 851},
		{"syrk", "V4_LL_PCV", 412},
	} {
		tiny := runAllocs(t, tc.bench, tc.cfg, kernels.Tiny)
		small := runAllocs(t, tc.bench, tc.cfg, kernels.Small)
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

// TestMachineNewAllocsWithPlane holds binding a machine to the plane to a
// cost per kind, not per tile or link: what machine.New allocates with a
// plane, over what it allocates without one. Binding sizes the heatmap
// once and copies it into the flight recorder; re-binding to a warm plane,
// as for a sweep's next cell or a fault ladder's next attempt, copies into
// buffers that already have the size, and a fresh 16x16 plane, with four
// times the tiles and links of an 8x8, costs at most twice as much. Every
// build is cold (pool.Drain), so both counts take in every slab's
// allocation. Not parallel: it drains the pools.
func TestMachineNewAllocsWithPlane(t *testing.T) {
	small, _ := benchParams(t, "mvt", "NV", config.ManycoreDefault(), machine.Params{})
	big := small
	big.Cfg.MeshWidth, big.Cfg.MeshHeight, big.Cfg.Cores = 16, 16, 256
	big.Cfg.LLCBanks, big.Cfg.LLCBytes = 32, 2*big.Cfg.LLCBytes
	// bind counts what a plane adds to machine.New; plane hands each build
	// its plane.
	bind := func(mp machine.Params, plane func() *metrics.Plane) float64 {
		bare := newAllocs(t, mp, pool.Drain)
		return allocsPerBuild(pool.Drain, func() {
			mp.Obs = plane()
			m, err := machine.New(mp)
			if err != nil {
				t.Fatal(err)
			}
			if !m.ObsBound() {
				t.Fatal("machine did not bind to the plane")
			}
			m.ReleaseObs()
			m.Recycle()
		}) - bare
	}
	fresh := func() func() *metrics.Plane {
		planes := make([]*metrics.Plane, 2) // allocsPerBuild's warm-up call and the counted one
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

// A steadyCell is a Tiny cell a steady-state gate ticks. Every tick-time
// buffer starts as a piece of a construction slab and doubles when a
// backlog outgrows it (an LLC bank's job ring, word ring and MSHR event
// slab, TestColdRunAllocs); warm steps from a fresh machine take the cell
// past the last doubling its run reaches, and the span cycles after it,
// still inside the kernel, are the measured window. mvt/V4 Tiny grows its
// rings until cycle 2725 and ends at 3152; gemm/V4 Tiny until 1100 and
// ends at 1421.
type steadyCell struct {
	bench, cfg string
	warm, span int
}

func (c steadyCell) String() string { return c.bench + "/" + c.cfg }

// steadyWindow steps m c.warm cycles, counts the allocations of the next
// c.span, each tick followed by after (nil for none, and run once before
// the window), and finishes the run: a window that reaches the end of the
// kernel measures a halted machine, and fails the gate.
func steadyWindow(t *testing.T, m *machine.Machine, c steadyCell, after func()) int64 {
	t.Helper()
	steps(m, c.warm)
	if after == nil {
		after = func() {}
	}
	after()
	n := alloctest.Count(func() {
		for range c.span {
			m.Step()
			after()
		}
	})
	end := m.Now()
	st, err := m.Run(1 << 40)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cycles <= end {
		t.Fatalf("%s ends at cycle %d, inside the window ending at %d", c, st.Cycles, end)
	}
	return n
}

// steps ticks m n times.
func steps(m *machine.Machine, n int) {
	for range n {
		m.Step()
	}
}

// steadyCells are the two busy machines the plain and plane gates tick.
var steadyCells = []steadyCell{
	{"mvt", "NV", 3000, 1000}, // scalar MIMD: heavy request/response mesh traffic
	{"gemm", "V4", 1100, 300}, // vector groups: expanders, frames, wide responses
}

// TestSteadyStateAllocs single-steps busy machines and asserts the steady
// state allocates nothing: pre-lowered dispatch, arena-backed flits, and
// pooled frames mean a warm machine's tick path never touches the heap.
func TestSteadyStateAllocs(t *testing.T) {
	for _, c := range steadyCells {
		t.Run(c.String(), func(t *testing.T) {
			m := buildForAllocTest(t, c.bench, c.cfg, nil, nil)
			if n := steadyWindow(t, m, c, nil); n != 0 {
				t.Errorf("steady-state ticks allocate: %d allocs in %d cycles", n, c.span)
			}
		})
	}
}

// TestSteadyStateAllocsWithPlane re-runs the allocation gate with the
// machine bound to a plane: each tick is followed by the heatmap copy the
// run loop makes at every watchdog checkpoint. Refilling the heatmap and
// copying it into the flight recorder's buffers, which already have the
// machine's size, may not cost the steady state a single allocation.
func TestSteadyStateAllocsWithPlane(t *testing.T) {
	plane := metrics.NewPlane("")
	for _, c := range steadyCells {
		t.Run(c.String(), func(t *testing.T) {
			m := buildForAllocTest(t, c.bench, c.cfg, plane, nil)
			if !m.ObsBound() {
				t.Fatal("machine did not bind to the plane")
			}
			var at int64
			n := steadyWindow(t, m, c, func() {
				m.PublishHeatmap()
				at = m.Now()
			})
			if n != 0 {
				t.Errorf("steady-state tick+heatmap copy allocates: %d allocs in %d cycles", n, c.span)
			}
			// Run's exit copied the last heatmap in.
			if s := dumpMachine(t, plane); s.Cycle <= at {
				t.Errorf("flight recorder's heatmap is at cycle %d, the window ended at %d", s.Cycle, at)
			}
		})
	}
}

// dumpMachine is the machine half of a bundle the plane writes now.
func dumpMachine(t *testing.T, plane *metrics.Plane) *metrics.MachineSnap {
	t.Helper()
	path, err := plane.Flight().Dump(t.TempDir(), "test", nil, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := metrics.ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Machine == nil {
		t.Fatal("bundle carries no machine heatmap")
	}
	return b.Machine
}

// TestSteadyStateAllocsWithSampler repeats the gate through the run loop
// with every window consumer attached: a JSONL sampler and a bound plane,
// whose flight ring keeps the slot holder's windows. Step-driven gates never
// reach observe, so this one drives RunUntil across window boundaries. Once
// every ring slot holds a line, a window is one encode into the sampler's
// reused line, one write and one copy into a slot: it costs nothing. The
// machine is built on the slabs a finished mvt/V4 machine recycled, so its
// memory system's rings start at their high-water depth, and a slot that
// regrows is sized to the ring's longest line so far, so no later, longer
// line regrows it again: the window is the 32 windows just after the ring
// first fills, from cycle 544.
func TestSteadyStateAllocsWithSampler(t *testing.T) {
	const every, perRun = 8, 4
	warm := buildForAllocTest(t, "mvt", "V4", nil, nil)
	if _, err := warm.Run(1 << 40); err != nil {
		t.Fatal(err)
	}
	warm.Recycle()
	sink := trace.NewSink(trace.Config{SampleTo: io.Discard, SampleEvery: every})
	plane := metrics.NewPlane("")
	m := buildForAllocTest(t, "mvt", "V4", plane, sink)
	defer m.ReleaseObs()
	if !m.ObsBound() {
		t.Fatal("machine did not bind to the plane")
	}
	if err := m.RunUntil(544); err != nil { // the ring's 64 slots full: jumps merge a few of the 68 windows
		t.Fatal(err)
	}
	if held, _ := plane.Flight().Counts(); held != 64 {
		t.Fatalf("flight ring holds %d windows after the warm-up, want a full 64", held)
	}
	start := m.Now()
	stop := start
	n := alloctest.Count(func() {
		for range 8 {
			stop += perRun * every
			if err := m.RunUntil(stop); err != nil {
				t.Fatal(err)
			}
		}
	})
	// mvt/V4 at Tiny runs 3152 cycles: the machine is still busy here.
	if windows := (m.Now() - start) / every; windows < 32 {
		t.Fatalf("measured %d windows, want >= 32", windows)
	}
	if n != 0 {
		t.Errorf("windows allocate: %d allocs in %d windows", n, 8*perRun)
	}
}

// TestSteadyStateAllocsWithRecorder repeats the gate with an event recorder
// attached: an emit is a few words stored in the ring, so once the ring has
// its memory (a small one, wrapped during the warm-up) a V4 machine emitting
// vload, fan-out and frame events still never touches the heap.
func TestSteadyStateAllocsWithRecorder(t *testing.T) {
	sink := trace.NewSink(trace.Config{EventsTo: io.Discard, EventCap: 256})
	m := buildForAllocTest(t, "mvt", "V4", nil, sink)
	rec := sink.Recorder()
	var first, last int64 // events emitted by the window's first and last tick
	n := steadyWindow(t, m, steadyCell{"mvt", "V4", 2750, 400}, func() {
		last = int64(rec.Len()) + rec.Dropped()
		if first == 0 {
			if rec.Dropped() == 0 {
				t.Fatalf("warm-up emitted %d events, too few to wrap the ring", last)
			}
			first = last
		}
	})
	if n != 0 {
		t.Errorf("steady-state ticks with a recorder allocate: %d allocs in 400 cycles", n)
	}
	if last-first < 400 {
		t.Errorf("measured window emitted %d events, want a busy recorder (>= 400)", last-first)
	}
}

// TestSteadyStateAllocsWithCausal repeats the gate with the causal profiler
// attached: every request and response flit opens a journey in the
// recorder's slab, and a warm slab recycles its entries instead of growing.
func TestSteadyStateAllocsWithCausal(t *testing.T) {
	for _, c := range []steadyCell{{"mvt", "NV", 1500, 1000}, {"mvt", "V4", 2750, 400}} {
		t.Run(c.String(), func(t *testing.T) {
			m := buildMachine(t, c.bench, c.cfg, machine.Params{Causal: true})
			if n := steadyWindow(t, m, c, nil); n != 0 {
				t.Errorf("steady-state ticks with causal recording allocate: %d allocs in %d cycles", n, c.span)
			}
		})
	}
}

// TestGroupArriveAllocs: a formation arrival runs in the core stage on every
// vconfig, and costs no allocation.
func TestGroupArriveAllocs(t *testing.T) {
	m := buildForAllocTest(t, "mvt", "V4", nil, nil)
	defer m.Recycle()
	tile := m.Groups[0].Scalar
	m.GroupArrive(tile)
	if n := alloctest.Count(func() {
		for range 100 {
			m.GroupArrive(tile)
		}
	}); n != 0 {
		t.Errorf("GroupArrive allocates: %d allocs in 100 arrivals", n)
	}
}

// TestRejectedFaultPlanAllocates: a fault plan that does not fit the fabric
// (routers 0 and 9 of an 8x8 mesh are not neighbours) is refused before New
// builds anything, and the pooled slabs stay in the pool for the next
// machine instead of being dropped. Not parallel: it reads the pools.
func TestRejectedFaultPlanAllocates(t *testing.T) {
	mp, _ := benchParams(t, "mvt", "NV", config.ManycoreDefault(), machine.Params{})
	m, err := machine.New(mp)
	if err != nil {
		t.Fatal(err)
	}
	m.Recycle() // a slab set in the pool
	bad := mp
	if bad.Faults, err = fault.Parse("cutlink@5:0>9"); err != nil {
		t.Fatal(err)
	}
	if n := alloctest.Bytes(func() { _, err = machine.New(bad) }); n >= 64<<10 {
		t.Errorf("rejected machine.New allocated %d bytes, want < 64 KiB", n)
	}
	if err == nil {
		t.Fatal("machine.New accepted a cut link between routers that are not neighbours")
	}
	n := alloctest.Bytes(func() { m, err = machine.New(mp) })
	if err != nil {
		t.Fatal(err)
	}
	defer m.Recycle()
	if n >= 8<<20 {
		t.Errorf("machine.New after a rejected one allocated %d bytes, want < 8 MiB: the pooled slabs were lost", n)
	}
}

// newBytes returns the bytes one machine.New over mp allocates after prep;
// the build is recycled.
func newBytes(t *testing.T, mp machine.Params, prep func()) int64 {
	t.Helper()
	prep()
	var m *machine.Machine
	var err error
	n := alloctest.Bytes(func() { m, err = machine.New(mp) })
	if err != nil {
		t.Fatal(err)
	}
	m.Recycle()
	return n
}

// TestRecycledNewBytes: machine.New of a shape that was just recycled
// builds on the recycled slabs, so it allocates at most an eighth of the
// bytes a cold build does. Not parallel: it drains the pools.
func TestRecycledNewBytes(t *testing.T) {
	big, _ := benchParams(t, "mvt", "NV", config.ManycoreDefault(), machine.Params{})
	big.Cfg.MeshWidth, big.Cfg.MeshHeight, big.Cfg.Cores = 16, 16, 256
	big.Cfg.LLCBanks, big.Cfg.LLCBytes = 32, 2*big.Cfg.LLCBytes
	for _, tc := range []struct {
		name string
		mp   machine.Params
	}{
		{"mvt Tiny NV, 8x8", mustParams(t, "mvt", "NV")},
		{"mvt Tiny V16, 8x8", mustParams(t, "mvt", "V16")},
		{"mvt Tiny NV, 16x16", big},
	} {
		cold := newBytes(t, tc.mp, pool.Drain)
		recycled := newBytes(t, tc.mp, func() {})
		t.Logf("%s: machine.New allocates %d KiB cold, %d KiB on recycled slabs", tc.name, cold>>10, recycled>>10)
		if recycled*8 > cold {
			t.Errorf("%s: machine.New on recycled slabs allocates %d bytes, more than 1/8 of a cold build's %d",
				tc.name, recycled, cold)
		}
	}
}

// mustParams is benchParams on the default fabric, without the image.
func mustParams(t *testing.T, benchName, cfgName string) machine.Params {
	t.Helper()
	mp, _ := benchParams(t, benchName, cfgName, config.ManycoreDefault(), machine.Params{})
	return mp
}

// TestRecycleTwiceSharesNoSlab: recycling a machine, or its store, a second
// time parks nothing, so two machines built after it share no slab set. Not
// parallel: it reads what the pools hand out.
func TestRecycleTwiceSharesNoSlab(t *testing.T) {
	mp := mustParams(t, "mvt", "V4")
	m, err := machine.New(mp)
	if err != nil {
		t.Fatal(err)
	}
	g := m.Global
	g.Recycle()
	m.Recycle()
	m.Recycle()
	g.Recycle()
	a, err := machine.New(mp)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Recycle()
	b, err := machine.New(mp)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Recycle()
	names := []string{"store", "request mesh", "response mesh", "LLC", "scratchpad", "core", "I-cache"}
	for i, sa := range a.SlabSets() {
		if sb := b.SlabSets()[i]; sa == sb {
			t.Errorf("two live machines share a %s slab set", names[i])
		}
	}
}

// TestFailedNewHandsBackSlabs: a machine.New that fails once its meshes and
// banks are built hands back every slab set it took, so the next build
// reuses exactly the sets the last machine recycled. Not parallel: it sets
// New's failure seam.
func TestFailedNewHandsBackSlabs(t *testing.T) {
	mp := mustParams(t, "mvt", "NV")
	m, err := machine.New(mp)
	if err != nil {
		t.Fatal(err)
	}
	want := m.SlabSets()
	m.Recycle()
	injected := errors.New("injected failure")
	restore := machine.FailAfterBanks(injected)
	_, err = machine.New(mp)
	restore()
	if !errors.Is(err, injected) {
		t.Fatalf("machine.New returned %v, want the injected failure", err)
	}
	m, err = machine.New(mp)
	if err != nil {
		t.Fatal(err)
	}
	got := m.SlabSets()
	m.Recycle()
	// The two mesh planes share a shape, so they may trade sets.
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("the build after a failed one holds slab sets %x, want the recycled %x: the failure dropped some", got, want)
	}
}
