package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is the part of BENCHMARK.json -compare needs: which way each
// end-to-end metric is better and how far it may worsen.
type benchSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, A, B, the ratio
// B/A and a verdict against the metric's bound. A host-time metric whose
// pass spread on either side exceeds the bound is unresolved: the run
// cannot tell a regression of that size from noise. Returns 1 when any row
// is worse, 2 on unusable input.
func compareFiles(boundsPath, aPath, bPath string, w io.Writer) int {
	var spec benchSpec
	var a, b resultFile
	for path, v := range map[string]any{boundsPath: &spec, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintf(os.Stderr, "perf: %v\n", err)
			return 2
		}
	}
	// Host-time metrics are the ones noise can move; the rest repeat.
	timed := map[string]bool{"wall_s": true, "sim_mcps": true, "setup_s": true}
	worse := 0
	fmt.Fprintf(w, "%-15s %-11s %14s %14s %18s  %s\n", "workload", "metric", "A", "B", "B/A (base A)", "verdict")
	for _, wl := range spec.Workloads {
		ra, okA := a.Workloads[wl.Name]
		rb, okB := b.Workloads[wl.Name]
		if !okA || !okB {
			continue // a single-workload run compares only what both sides hold
		}
		for _, m := range spec.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			worseBy := (vb - va) / va
			if m.Better == "higher" {
				worseBy = (va - vb) / va
			}
			verdict := "ok"
			switch {
			case timed[m.Name] && max(ra.PassSpreadFrac, rb.PassSpreadFrac) > m.Bound:
				verdict = fmt.Sprintf("unresolved (pass spread %.3f > bound %.3f)", max(ra.PassSpreadFrac, rb.PassSpreadFrac), m.Bound)
			case worseBy > m.Bound:
				verdict = fmt.Sprintf("worse (by %.4f > bound %.3f)", worseBy, m.Bound)
				worse++
			}
			fmt.Fprintf(w, "%-15s %-11s %14s %14s %11.4f of %-6.4g  %s\n", wl.Name, m.Name,
				fmtFloat(va), fmtFloat(vb), vb/va, va, verdict)
		}
		verdict := "ok"
		if rb.FailFrac > ra.FailFrac {
			verdict = "worse (must not rise)"
			worse++
		}
		fmt.Fprintf(w, "%-15s %-11s %14s %14s %18s  %s\n", wl.Name, "fail_frac",
			fmtFloat(ra.FailFrac), fmtFloat(rb.FailFrac), "-", verdict)
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d rows worse\n", worse)
		return 1
	}
	return 0
}
