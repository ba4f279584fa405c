package kernels

import (
	"reflect"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/pool"
	"rockcress/internal/stats"
)

// TestRecycledMachineMatchesFresh: a machine built on recycled slabs runs
// exactly as a cold one. Each cell of the golden set (every kernel under
// NV, V4 and V16 at Tiny scale) runs cold, then on the slabs a faulted
// machine just recycled: a cut link that rewrote a route table, a
// decommissioned bank, a flip under integrity checking that filled delivery
// records, or a V16 build that parked 13 tiles. Each faulted machine is
// stopped mid-run, so it recycles flits in the mesh, busy MSHRs, queued
// jobs and loads in flight. All of them share the default fabric's shape,
// so each recycled run takes the faulted machine's slabs. Cycles and
// statistics must match the cold run's. Not parallel: it drains the pools.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	dirty := []struct {
		bench, cfg, plan string
		stop             int64
	}{
		{"gemm", "NV", "cutlink@500:27>28", 2000},
		{"mvt", "V4", "killbank@800:b3", 2000},
		{"mvt", "V4", "flip@2500:t3:o64:b7", 2900},
		{"mvt", "V16", "", 2000},
	}
	cell := func(bench, cfg string) (Benchmark, config.Software) {
		t.Helper()
		b, err := Get(bench)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := config.Preset(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b, sw
	}
	// run executes a cell through the recovery ladder, the one run path.
	run := func(bench, cfg string) *stats.Machine {
		t.Helper()
		b, sw := cell(bench, cfg)
		res, err := ExecuteOpts(b, b.Defaults(Tiny), sw, config.ManycoreDefault(), ExecOpts{})
		if err != nil {
			t.Fatalf("%s/%s: %v", bench, cfg, err)
		}
		st := *res.Stats
		st.WallNs = 0 // host time
		return &st
	}
	// soil builds a faulted cell's machine as the ladder's first rung does,
	// runs it to cycle stop and recycles it there.
	soil := func(bench, cfg, plan string, stop int64) {
		t.Helper()
		b, sw := cell(bench, cfg)
		hw := sw.Apply(config.ManycoreDefault())
		groups, err := GroupsFor(sw, hw)
		if err != nil {
			t.Fatal(err)
		}
		a := trial{n: 1}
		if plan != "" {
			if a.plan, err = fault.Parse(plan); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.build(b, b.Defaults(Tiny), sw, sw, hw, groups, ExecOpts{}); err != nil {
			t.Fatal(err)
		}
		defer a.m.Recycle()
		if err := a.m.RunUntil(stop); err != nil {
			t.Fatalf("%s/%s %q: %v", bench, cfg, plan, err)
		}
		if a.m.Now() < stop {
			t.Fatalf("%s/%s %q halted before cycle %d: it would recycle a drained machine", bench, cfg, plan, stop)
		}
	}
	i := 0
	for _, b := range All() {
		for _, cfg := range []string{"NV", "V4", "V16"} {
			name := b.Info().Name
			pool.Drain()
			cold := run(name, cfg)
			d := dirty[i%len(dirty)]
			i++
			soil(d.bench, d.cfg, d.plan, d.stop)
			recycled := run(name, cfg)
			if recycled.Cycles != cold.Cycles {
				t.Errorf("%s/%s after %s/%s %q: %d cycles on recycled slabs, %d cold",
					name, cfg, d.bench, d.cfg, d.plan, recycled.Cycles, cold.Cycles)
			} else if !reflect.DeepEqual(recycled, cold) {
				t.Errorf("%s/%s after %s/%s %q: statistics on recycled slabs differ from a cold build's",
					name, cfg, d.bench, d.cfg, d.plan)
			}
		}
	}
}
