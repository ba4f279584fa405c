package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs the -smoke path and holds the printed metrics against
// BENCHMARK.json: every declared metric exactly once per workload with its
// unit, names well-formed, the lists in code and JSON identical, and no
// cell failing its serial-reference or mirror check.
func TestSmoke(t *testing.T) {
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	type nu struct{ name, unit string }
	sameList := func(what string, code []metricDef, json []nu) {
		t.Helper()
		if len(code) != len(json) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", what, len(code), len(json))
		}
		for i, d := range code {
			if d.name != json[i].name || d.unit != json[i].unit {
				t.Errorf("%s[%d]: code has %s (%s), BENCHMARK.json has %s (%s)", what, i, d.name, d.unit, json[i].name, json[i].unit)
			}
			if !nameRE.MatchString(d.name) {
				t.Errorf("%s: bad metric name %q", what, d.name)
			}
		}
	}
	var e2e, layer []nu
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, nu{m.Name, m.Unit})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, nu{m.Name, m.Unit})
	}
	sameList("end_to_end", endToEnd, e2e)
	sameList("per_layer", perLayer, layer)
	defs := workloads()
	if len(defs) != len(spec.Workloads) {
		t.Fatalf("%d workloads in code, %d in BENCHMARK.json", len(defs), len(spec.Workloads))
	}
	for i, d := range defs {
		if d.name != spec.Workloads[i].Name || d.why != spec.Workloads[i].Why {
			t.Errorf("workload %d: code has %q (%q), BENCHMARK.json has %q (%q)", i, d.name, d.why,
				spec.Workloads[i].Name, spec.Workloads[i].Why)
		}
		if !nameRE.MatchString(d.name) {
			t.Errorf("bad workload name %q", d.name)
		}
	}

	var out bytes.Buffer
	if code := run(runConfig{seed: 1, trace: -1, out: t.TempDir(), smoke: true}, &out); code != 0 {
		t.Fatalf("smoke run exited %d\n%s", code, out.String())
	}
	seen := map[string]int{} // "workload metric unit" -> lines
	for _, ln := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		f := strings.Fields(ln)
		if len(f) < 4 {
			t.Errorf("malformed metric line %q", ln)
			continue
		}
		seen[f[0]+" "+f[1]+" "+f[3]]++
		if f[1] == "fail_frac" && f[2] != "0" {
			t.Errorf("%s: fail_frac = %s", f[0], f[2])
		}
	}
	for _, d := range defs {
		for _, m := range append(append([]metricDef{{name: "fail_frac", unit: "frac"}}, endToEnd...), perLayer...) {
			if n := seen[d.name+" "+m.name+" "+m.unit]; n != 1 {
				t.Errorf("%s %s (%s): printed %d times, want exactly once", d.name, m.name, m.unit, n)
			}
		}
	}
}
