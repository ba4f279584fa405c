package analyze

import (
	"testing"

	"rockcress/internal/config"
	"rockcress/internal/kernels"
)

// TestClassifierAgreesWithDocumentedBottlenecks validates the rule tree
// against the regimes EXPERIMENTS.md documents from the paper's own
// sensitivity studies, on real small-scale simulations:
//
//   - Figure 13: gesummv is the bandwidth-starved kernel (it gains the
//     most from doubling DRAM bandwidth), so its NV_PF runs must classify
//     dram-bandwidth-saturated at both 1x and 2x bandwidth.
//   - Figure 17c: at network width 1 the data mesh is the constraint
//     (syrk/syr2k gain ~4x from width 1 -> 4), so those runs must
//     classify noc/inet-limited.
func TestClassifierAgreesWithDocumentedBottlenecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs small-scale simulations")
	}
	dbl := func(hw *config.Manycore) { hw.DRAMBandwidth *= 2 } // Fig13's 2xBW mod
	nw1 := func(hw *config.Manycore) { hw.NetWidthWords = 1 }  // Fig17c's NW1 mod
	cases := []struct {
		bench, cfg string
		mod        func(*config.Manycore)
		want       Label
	}{
		{"gesummv", "NV_PF", nil, LabelDramSaturated},
		{"gesummv", "NV_PF", dbl, LabelDramSaturated},
		{"syr2k", "NV_PF", nw1, LabelNocLimited},
		{"syrk", "NV_PF", nw1, LabelNocLimited},
		{"syrk", "V4", nw1, LabelNocLimited},
	}
	for _, tc := range cases {
		name := tc.bench + "/" + tc.cfg
		bench, err := kernels.Get(tc.bench)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := config.Preset(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		hw := config.ManycoreDefault()
		if tc.mod != nil {
			tc.mod(&hw)
		}
		res, err := kernels.ExecuteOpts(bench, bench.Defaults(kernels.Small), sw, hw, kernels.ExecOpts{MaxCycles: kernels.DefaultMaxCycles})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := New(Meta{Bench: tc.bench, Config: tc.cfg, Scale: "small"}, res.Stats, res.Groups, res.HW)
		if r.Bottleneck.Label != tc.want {
			t.Errorf("%s: classified %q, want %q (evidence: %v)",
				name, r.Bottleneck.Label, tc.want, r.Bottleneck.Evidence)
		}
	}
}
