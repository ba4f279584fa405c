package machine_test

// Permanent topology faults through the full stack: cut links, dead
// routers, decommissioned LLC banks, and degraded DRAM must leave the
// machine deterministic, produce correct kernel output on the degraded
// fabric, and fail structurally (never hang) when a cut set partitions the
// mesh.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/fault"
	"rockcress/internal/kernels"
	"rockcress/internal/lifecycle"
)

// topologyPlans is one schedule per new fault kind plus a combined
// campaign. Endpoints are mesh-adjacent on the default 8x8 fabric; the
// fire cycles land mid-kernel for mvt at tiny scale.
var topologyPlans = []struct {
	name string
	plan string
}{
	{"cutlink", "cutlink@600:27>28"},
	{"cutlink-plane", "cutlink@600:10>18:resp"},
	{"killrouter", "killrouter@600:t9"},
	{"killbank", "killbank@600:b3"},
	{"dramdegrade", "dramdegrade@400-5000:x2.5"},
	{"combined", "cutlink@500:12>13;killbank@700:b5;dramdegrade@300:x1.5"},
}

// TestTopologyFaultDeterminism runs mvt/V4 twice under every permanent-fault
// kind: total cycles, attempt ladders and fault reports must be
// bit-identical, so nothing the topology transition touches (harvest order,
// route rebuilds, bank failover) depends on more than the schedule. The run
// itself also proves correctness — ExecuteWithFaultsOpts checks the output
// against the serial reference before returning nil.
func TestTopologyFaultDeterminism(t *testing.T) {
	for _, tc := range topologyPlans {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			b, err := kernels.Get("mvt")
			if err != nil {
				t.Fatal(err)
			}
			sw, err := config.Preset("V4")
			if err != nil {
				t.Fatal(err)
			}
			hw := config.ManycoreDefault()
			mkPlan := func() *fault.Plan {
				p, perr := fault.Parse(tc.plan)
				if perr != nil {
					t.Fatalf("parse %q: %v", tc.plan, perr)
				}
				return p
			}
			var runs [2]*kernels.FaultResult
			for i := range runs {
				fr, err := kernels.ExecuteWithFaultsOpts(b, b.Defaults(kernels.Tiny), sw, hw,
					mkPlan(), kernels.ExecOpts{})
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				runs[i] = fr
			}
			ref, fr := runs[0], runs[1]
			if fr.TotalCycles != ref.TotalCycles || fr.Attempts != ref.Attempts {
				t.Errorf("cycles/attempts %d/%d, then %d/%d",
					ref.TotalCycles, ref.Attempts, fr.TotalCycles, fr.Attempts)
			}
			if !reflect.DeepEqual(fr.Ladder, ref.Ladder) {
				t.Errorf("ladder %+v, then %+v", ref.Ladder, fr.Ladder)
			}
			if !reflect.DeepEqual(fr.Report, ref.Report) {
				t.Errorf("fault report differs between runs:\n%+v\n%+v", ref.Report, fr.Report)
			}
		})
	}
}

// TestTopologyFaultAccounting checks that each fault kind shows up in the
// merged report and the machine statistics: the figure and rockdoctor
// layers read degradation exclusively from these counters.
func TestTopologyFaultAccounting(t *testing.T) {
	run := func(t *testing.T, plan string) *kernels.FaultResult {
		t.Helper()
		b, err := kernels.Get("mvt")
		if err != nil {
			t.Fatal(err)
		}
		sw, err := config.Preset("V4")
		if err != nil {
			t.Fatal(err)
		}
		p, err := fault.Parse(plan)
		if err != nil {
			t.Fatalf("parse %q: %v", plan, err)
		}
		fr, err := kernels.ExecuteWithFaultsOpts(b, b.Defaults(kernels.Tiny), sw,
			config.ManycoreDefault(), p, kernels.ExecOpts{MaxCycles: 30_000_000})
		if err != nil {
			t.Fatalf("%q: %v", plan, err)
		}
		return fr
	}
	t.Run("cutlink", func(t *testing.T) {
		t.Parallel()
		fr := run(t, "cutlink@600:27>28")
		rep := fr.Report
		if rep == nil || len(rep.CutLinks) != 1 || rep.CutLinks[0] != "27>28" {
			t.Fatalf("cut links not reported: %v", rep)
		}
		if fr.Stats.NocRouteRebuilds < 2 {
			t.Errorf("route rebuilds = %d, want >= 2 (one per plane)", fr.Stats.NocRouteRebuilds)
		}
		if fr.Stats.CutLinks != 1 {
			t.Errorf("stats cutLinks = %d, want 1", fr.Stats.CutLinks)
		}
		if !rep.Degraded() {
			t.Error("report not degraded after a cut link")
		}
	})
	t.Run("killrouter", func(t *testing.T) {
		t.Parallel()
		fr := run(t, "killrouter@600:t9")
		rep := fr.Report
		if rep == nil || len(rep.DeadRouters) != 1 || rep.DeadRouters[0] != 9 {
			t.Fatalf("dead routers not reported: %v", rep)
		}
		// The router takes its tile down with it.
		found := false
		for _, d := range rep.DeadTiles {
			if d == 9 {
				found = true
			}
		}
		if !found {
			t.Errorf("tile 9 not dead after killrouter: %v", rep.DeadTiles)
		}
	})
	t.Run("killbank", func(t *testing.T) {
		t.Parallel()
		fr := run(t, "killbank@600:b3")
		rep := fr.Report
		if rep == nil || len(rep.DeadBanks) != 1 || rep.DeadBanks[0] != 3 {
			t.Fatalf("dead banks not reported: %v", rep)
		}
		if fr.Stats.DeadBanks != 1 {
			t.Errorf("stats deadBanks = %d, want 1", fr.Stats.DeadBanks)
		}
		if !rep.Degraded() {
			t.Error("report not degraded after a bank decommission")
		}
	})
	t.Run("dramdegrade", func(t *testing.T) {
		t.Parallel()
		fr := run(t, "dramdegrade@1:x3")
		if fr.Stats.DramDegradedOps == 0 {
			t.Error("no DRAM accesses took the degraded latency")
		}
	})
}

// TestCutLinkPartitionStructured cuts every link around the mesh corner:
// tile 0 is unreachable, and the machine must surface a structured
// *RunError naming the partition rather than hang or panic.
func TestCutLinkPartitionStructured(t *testing.T) {
	plan, err := fault.Parse("cutlink@100:0>1;cutlink@100:0>8")
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := runV4DAE(t, plan, 0, 0)
	if runErr == nil {
		t.Fatal("partitioned mesh completed without error")
	}
	var fe *lifecycle.RunError
	if !errors.As(runErr, &fe) {
		t.Fatalf("error is not a *RunError: %v", runErr)
	}
	if !strings.Contains(runErr.Error(), "partition") {
		t.Errorf("error does not name the partition: %v", runErr)
	}
}

// TestKillLastBankStructured kills every LLC bank: the final kill has no
// failover target and must fail structurally, not hang.
func TestKillLastBankStructured(t *testing.T) {
	cfg := config.ManycoreDefault()
	var sb strings.Builder
	for b := 0; b < cfg.LLCBanks; b++ {
		if b > 0 {
			sb.WriteByte(';')
		}
		fmt.Fprintf(&sb, "killbank@%d:b%d", 100+int64(b), b)
	}
	plan, err := fault.Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := runV4DAE(t, plan, 0, 0)
	if runErr == nil {
		t.Fatal("killing every bank completed without error")
	}
	var fe *lifecycle.RunError
	if !errors.As(runErr, &fe) {
		t.Fatalf("error is not a *RunError: %v", runErr)
	}
	if !strings.Contains(runErr.Error(), "last live LLC bank") {
		t.Errorf("error does not name the last-bank condition: %v", runErr)
	}
}
