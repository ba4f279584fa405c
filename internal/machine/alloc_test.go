package machine_test

import (
	"io"
	"testing"

	"rockcress/internal/config"
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
	bench, err := kernels.Get(benchName)
	if err != nil {
		t.Fatal(err)
	}
	p := bench.Defaults(kernels.Tiny)
	sw, err := config.Preset(cfgName)
	if err != nil {
		t.Fatal(err)
	}
	hw := sw.Apply(config.ManycoreDefault())
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
	m, err := machine.New(mp)
	if err != nil {
		t.Fatal(err)
	}
	img.Apply(m.Global)
	return m
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
