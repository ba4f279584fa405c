package kernels

import (
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/machine"
	"rockcress/internal/metrics"
	"rockcress/internal/stats"
)

// TestRunStatusTellsMachinesApart: two cells of a figure that varies the
// machine (Fig 11's core counts) are two distinct sweep.active entries
// while they run: the configuration a cell reports carries the machine's
// spelling (config.MachineKey) beside its Table 3 row.
func TestRunStatusTellsMachinesApart(t *testing.T) {
	b, err := Get("atax")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := config.Preset("NV_PF")
	if err != nil {
		t.Fatal(err)
	}
	plane := metrics.NewPlane("")
	var seen []metrics.ActiveSnap
	defer func(run func(*machine.Machine, int64) (*stats.Machine, error)) { runMachine = run }(runMachine)
	runMachine = func(m *machine.Machine, maxCycles int64) (*stats.Machine, error) {
		seen = append(seen, plane.Run().Snapshot().Active...)
		return m.Run(maxCycles)
	}
	for _, side := range []int{2, 4} { // Fig 11's 4- and 16-core machines
		hw := config.ManycoreDefault()
		hw.MeshWidth, hw.MeshHeight, hw.Cores, hw.LLCBanks = side, side, side*side, 2*side
		if _, err := ExecuteOpts(b, b.Defaults(Tiny), sw, hw, ExecOpts{Obs: plane}); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 2 {
		t.Fatalf("saw %d active cells over two runs, want one each: %+v", len(seen), seen)
	}
	if seen[0].Kernel != "atax" || seen[0].Config == seen[1].Config {
		t.Errorf("two core counts gave active cells %+v and %+v, want two distinct atax entries", seen[0], seen[1])
	}
	t.Logf("active configs: %q, %q", seen[0].Config, seen[1].Config)
}
