package harness

// The perf-regression baseline gate. A baseline file pins the full
// canonical report (not just the cycle count) of every PolyBench kernel
// under the NV, V4, and V16 configurations at one scale. The simulator is
// deterministic, so Check demands bit-equal cycle counts: any drift is a
// real behavior change, and because the baseline holds whole reports the
// gate can say where the cycles went (rockdoctor's diff attribution), not
// just that they moved.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"rockcress/internal/analyze"
	"rockcress/internal/kernels"
)

// BaselineConfigs is the configuration set a baseline covers: the MIMD
// floor and both vector lengths — the three points every figure's shape
// depends on.
var BaselineConfigs = []string{"NV", "V4", "V16"}

// Baseline is the committed perf-gate file (bench/baseline.json).
type Baseline struct {
	// Schema tracks the embedded report schema; a baseline written by a
	// different report schema must be regenerated, not compared.
	Schema int `json:"schema"`
	// Scale names the input scale the baseline was recorded at; Check
	// re-runs at this scale regardless of the session's -scale.
	Scale string `json:"scale"`
	// Runs maps "bench/config" to that run's full report.
	Runs map[string]*analyze.Report `json:"runs"`
}

func baselineKey(bench, cfg string) string { return bench + "/" + cfg }

// ReadBaseline parses and validates a baseline file.
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", path, err)
	}
	if b.Schema != analyze.SchemaVersion {
		return nil, fmt.Errorf("harness: %s: baseline schema %d, this build writes %d — regenerate with -update-baseline",
			path, b.Schema, analyze.SchemaVersion)
	}
	if _, err := kernels.ParseScale(b.Scale); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", path, err)
	}
	if len(b.Runs) == 0 {
		return nil, fmt.Errorf("harness: %s: baseline has no runs", path)
	}
	return &b, nil
}

// WriteBaseline runs the baseline sweep — every PolyBench kernel under
// every BaselineConfigs entry, no hardware mods — at the runner's scale and
// writes the resulting reports to path, less their host facts (wall time,
// simulated MIPS, build), so a re-record of an unchanged tree rewrites the
// file byte for byte.
func (r *Runner) WriteBaseline(path string) error {
	reqs, err := requests(kernels.PolyBench(), plain(BaselineConfigs...))
	if err != nil {
		return err
	}
	results, err := r.fetch(reqs)
	if err != nil {
		return err
	}
	b := &Baseline{
		Schema: analyze.SchemaVersion,
		Scale:  r.opts.Scale.String(),
		Runs:   make(map[string]*analyze.Report, len(reqs)),
	}
	for i, q := range reqs {
		rep := r.report(results[i], "")
		rep.WallNs, rep.SimMips, rep.Build = 0, 0, nil
		b.Runs[baselineKey(q.bench.Info().Name, q.sw.Name)] = rep
	}
	data, err := json.MarshalIndent(b, "", " ")
	if err != nil {
		return fmt.Errorf("harness: encode baseline: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	return nil
}

// Check re-runs every baseline entry and demands bit-equal cycle counts.
// The baseline must cover the full expected sweep (every PolyBench kernel
// under every BaselineConfigs entry) — missing entries fail the gate.
// Each drifted run prints rockdoctor's full diff attribution; the returned
// error (nil when everything matches) summarizes how many runs drifted.
// The runner must have been built at the baseline's scale.
func (r *Runner) Check(b *Baseline, out io.Writer) error {
	if got := r.opts.Scale.String(); got != b.Scale {
		return fmt.Errorf("harness: baseline is %s scale, runner is %s", b.Scale, got)
	}
	// The gate only replays what the file contains, so a stale or
	// hand-edited baseline with entries removed would silently stop
	// covering those runs. Demand the full expected sweep.
	var missing []string
	for _, bench := range kernels.PolyBench() {
		for _, cfg := range BaselineConfigs {
			k := baselineKey(bench.Info().Name, cfg)
			if _, ok := b.Runs[k]; !ok {
				missing = append(missing, k)
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("harness: baseline is missing %d sweep runs (%s); regenerate with -update-baseline",
			len(missing), strings.Join(missing, ", "))
	}
	keys := make([]string, 0, len(b.Runs))
	for k := range b.Runs {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Re-simulate everything on the worker pool, then compare in
	// deterministic key order.
	reqs := make([]runReq, len(keys))
	for i, k := range keys {
		bench, err := kernels.Get(b.Runs[k].Bench)
		if err != nil {
			return fmt.Errorf("harness: baseline run %s: %w", k, err)
		}
		if reqs[i], err = req(bench, b.Runs[k].Config, nil); err != nil {
			return err
		}
	}
	results, err := r.fetch(reqs)
	if err != nil {
		return err
	}

	drifted := 0
	for i, k := range keys {
		want := b.Runs[k]
		got := r.report(results[i], "")
		if got.Cycles == want.Cycles {
			fmt.Fprintf(out, "ok   %-22s %10d cycles\n", k, got.Cycles)
			continue
		}
		drifted++
		fmt.Fprintf(out, "FAIL %-22s %10d cycles, baseline %d (%+d)\n",
			k, got.Cycles, want.Cycles, got.Cycles-want.Cycles)
		analyze.Diff(want, got).Render(out)
		fmt.Fprintln(out)
	}
	if drifted > 0 {
		return fmt.Errorf("harness: %d of %d baseline runs drifted", drifted, len(keys))
	}
	fmt.Fprintf(out, "baseline: all %d runs match (%s scale)\n", len(keys), b.Scale)
	return nil
}
