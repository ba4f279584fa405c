package kernels

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"rockcress/internal/config"
	"rockcress/internal/lifecycle"
)

// TestBudgetStopsBeforeARun: a canceled context or a spent wall budget
// stops a run before its first attempt (the manycore ladder) or its first
// launch (the GPU model), as a RunError naming attempt 1.
func TestBudgetStopsBeforeARun(t *testing.T) {
	bench, err := Get("mvt")
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, row := range []string{"NV", "GPU"} {
		sw, err := Preset(row)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			opts ExecOpts
			want error
			text string
		}{
			{"canceled", ExecOpts{Ctx: canceled}, context.Canceled, "run canceled"},
			{"wall budget", ExecOpts{WallBudget: time.Nanosecond}, lifecycle.ErrWallBudget, ""},
		} {
			_, err := ExecuteOpts(bench, bench.Defaults(Tiny), sw, config.ManycoreDefault(), tc.opts)
			var re *lifecycle.RunError
			if !errors.Is(err, tc.want) || !errors.As(err, &re) || re.Attempt != 1 || re.Config != row ||
				!strings.Contains(err.Error(), tc.text) {
				t.Errorf("%s %s: got %v, want a %s/%s attempt 1 RunError wrapping %v", row, tc.name, err, "mvt", row, tc.want)
			}
		}
	}
}
