package kernels

import (
	"errors"
	"io"
	"testing"

	"rockcress/internal/alloctest"
	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/machine"
	"rockcress/internal/metrics"
	"rockcress/internal/stats"
	"rockcress/internal/trace"
)

// TestWarmRunAllocatesNothing: a run on the slabs a run of the same cell
// recycled allocates nothing, whole, from its first cycle to its last —
// not only in a steady-state window. Every buffer a run grows (the LLC
// rings and MSHR event slab, the DRAM queues, the delivery records, the
// mesh's reroute state and harvest list, the fault stack's queues, the
// checkpoint images) goes back with the slabs it came from, so the second
// run of a cell finds each at the depth the first one reached. Each family
// runs once to warm its pools, then again with every attempt's
// Machine.Run counted by alloctest.Count; only a run that fails with a
// *machine.FaultError may allocate, for the error's own report. Not
// parallel: the count is process-wide.
func TestWarmRunAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name, bench, cfg, plan string
		observed               bool
	}{
		{name: "mvt/NV", bench: "mvt", cfg: "NV"},
		{name: "gemm/V4", bench: "gemm", cfg: "V4"},
		{name: "mvt/V16", bench: "mvt", cfg: "V16"},
		// A recovery ladder whose machines reroute around a cut link and
		// fail a dead bank's slice over.
		{name: "ladder", bench: "mvt", cfg: "V4", plan: "cutlink@500:27>28;killbank@800:b3"},
		// A kill under frame integrity: the first attempt publishes
		// checkpoints, the second restores one and publishes again.
		{name: "kill+restore", bench: "mvt", cfg: "V4", plan: "kill@1970:t9"},
		{name: "observed", bench: "mvt", cfg: "V4", observed: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := Get(tc.bench)
			if err != nil {
				t.Fatal(err)
			}
			sw, err := config.Preset(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var plan *fault.Plan
			if tc.plan != "" {
				if plan, err = fault.Parse(tc.plan); err != nil {
					t.Fatal(err)
				}
			}
			opts := ExecOpts{MaxCycles: replayMaxCycles}
			if tc.observed {
				// One sink and one plane serve both runs, as they serve a
				// ladder's attempts. The first run wraps the event ring and
				// the flight ring's 64 windows, so the second finds all of
				// their memory.
				sink := trace.NewSink(trace.Config{SampleEvery: 32, SampleTo: io.Discard,
					EventsTo: io.Discard, EventCap: 1 << 10})
				defer sink.Close()
				plane := metrics.NewPlane("")
				opts.Causal, opts.Trace, opts.Obs = true, sink, plane
				defer func() {
					if held, _ := plane.Flight().Counts(); sink.Recorder().Dropped() == 0 || held < 64 {
						t.Errorf("the runs never wrapped the event ring or filled the flight ring (%d windows)", held)
					}
				}()
			}
			exec := func() *FaultResult {
				t.Helper()
				fr, err := ExecuteWithFaultsOpts(b, b.Defaults(Tiny), sw, config.ManycoreDefault(), plan, opts)
				if err != nil {
					t.Fatal(err)
				}
				return fr
			}
			exec()

			var counted []int64
			defer func(run func(*machine.Machine, int64) (*stats.Machine, error)) { runMachine = run }(runMachine)
			runMachine = func(m *machine.Machine, maxCycles int64) (st *stats.Machine, err error) {
				n := alloctest.Count(func() { st, err = m.Run(maxCycles) })
				if fe := (*machine.FaultError)(nil); !errors.As(err, &fe) {
					counted = append(counted, n)
				}
				return st, err
			}
			fr := exec()
			if tc.name == "kill+restore" && fr.CheckpointRestarts < 1 {
				t.Errorf("no attempt restored a checkpoint")
			}
			if len(counted) == 0 {
				t.Fatal("no run completed without a *FaultError")
			}
			for i, n := range counted {
				if n != 0 {
					t.Errorf("run %d of %d on warm slabs allocated %d times, want 0", i+1, len(counted), n)
				}
			}
		})
	}
}
