package machine_test

import (
	"io"
	"runtime"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/kernels"
	"rockcress/internal/machine"
	"rockcress/internal/metrics"
	"rockcress/internal/trace"
)

// buildForAllocTest assembles a ready-to-run machine for one kernel and
// software preset, mirroring kernels.Execute up to (but excluding) Run.
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
	bench, err := kernels.Get(benchName)
	if err != nil {
		t.Fatal(err)
	}
	p := bench.Defaults(kernels.Tiny)
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
// tile or bank count. What remains scales with the program (the lowered
// dispatch table) and with fixed per-machine plumbing.
func TestMachineNewAllocs(t *testing.T) {
	const maxAllocs = 600
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

// TestSteadyStateAllocs single-steps busy machines and asserts the steady
// state allocates nothing per cycle: pre-lowered dispatch, arena-backed
// flits, and pooled frames mean a warm machine's tick path never touches
// the heap. The warm-up grows every lazily sized buffer (LLC job rings,
// mesh move scratch, expander queues) before the measured window.
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
