package causal

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Report is the serializable critical_path section of report.json: the
// path buckets, the per-resource slack table, and the top edge chains. It
// is plain data — the harness journal round-trips it as JSON.
type Report struct {
	// Cycles is the run's end-to-end cycle count; Buckets sum to it
	// exactly.
	Cycles  int64    `json:"cycles"`
	Buckets []Bucket `json:"buckets"`
	Slack   []Slack  `json:"slack"`
	// TopChains is the longest barrier intervals, the concrete dependency
	// chains that bounded the run.
	TopChains []Chain `json:"top_chains,omitempty"`
	// Intervals is the number of barrier intervals recorded.
	Intervals int `json:"intervals"`
	// Truncated is set when the interval ring overflowed; buckets and
	// projections are still exact, chain detail covers a suffix only.
	Truncated bool `json:"truncated,omitempty"`
}

// Bucket is one resource class's share of the critical path.
type Bucket struct {
	Class  string  `json:"class"`
	Cycles int64   `json:"cycles"`
	Frac   float64 `json:"frac"`
}

// Slack is one what-if row: projected end-to-end cycles with the resource
// twice as fast (x0.5) and twice as slow (x2), and the slack — cycles the
// run would save at x0.5 (0 means the resource is off the critical path).
type Slack struct {
	Param   string `json:"param"`
	Halved  int64  `json:"projected_cycles_x0.5"`
	Doubled int64  `json:"projected_cycles_x2"`
	Slack   int64  `json:"slack_cycles"`
}

// Chain is one of the longest barrier intervals.
type Chain struct {
	End       int64  `json:"end"`
	Window    int64  `json:"window"`
	Tile      int    `json:"tile"`
	Gap       int64  `json:"gap"`
	Dominant  string `json:"dominant"`
	DomCycles int64  `json:"dominant_cycles"`
}

// topChains is how many intervals the report keeps.
const topChains = 8

// scaleKeys maps what-if parameter names to the classes they scale.
// Deterministic order for the slack table is slackParams below.
var scaleKeys = map[string][]Class{
	"scalar":  {ClassScalar},
	"vector":  {ClassVector},
	"compute": {ClassScalar, ClassVector},
	"frame":   {ClassFrame},
	// Congestion (ClassNocContend) rides on both "llc" and "noc": doubling
	// banks spreads the same traffic over twice the mesh endpoints, halving
	// hop latency doubles link bandwidth — either change scales the
	// queueing excess, while only hop latency scales the distance floor.
	// Scaling both at once composes multiplicatively on the shared class.
	// Bank count also scales bank queueing (ClassLLCQ: fewer requests per
	// queue) but NOT service proper (ClassLLC: the lookup and streaming for
	// one access cost the same on any bank count), so "llc" covers the
	// queue and contention classes and "llcsvc" the service itself.
	"llc":          {ClassLLCQ, ClassNocContend},
	"llcsvc":       {ClassLLC},
	"noc":          {ClassNocReq, ClassNocResp, ClassNocContend},
	"dramq":        {ClassDramQ},
	"dram":         {ClassDramLat},
	"inet":         {ClassInet},
	"backpressure": {ClassBackpressure},
	"barrier":      {ClassBarrier},
	"recovery":     {ClassRecovery},
}

// slackParams is the slack table's row order: the knobs the machine can
// actually turn, most interesting first.
var slackParams = []string{"noc", "dram", "dramq", "llc", "inet", "frame", "compute"}

// ScaleKeys returns the valid what-if parameter names, sorted.
func ScaleKeys() []string {
	ks := make([]string, 0, len(scaleKeys))
	for k := range scaleKeys {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// ParseScales parses a what-if spec like "noc=0.5,dram=0.5" into a
// per-parameter factor map. Factors must be positive; unknown parameters
// are an error listing the valid ones.
func ParseScales(spec string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad scale %q: want param=factor", part)
		}
		k = strings.TrimSpace(k)
		if _, known := scaleKeys[k]; !known {
			return nil, fmt.Errorf("unknown scale param %q (valid: %s)", k, strings.Join(ScaleKeys(), ", "))
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil || f <= 0 || math.IsInf(f, 0) || math.IsNaN(f) {
			return nil, fmt.Errorf("bad factor for %q: %q (want a positive number)", k, v)
		}
		out[k] = f
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty scale spec (want e.g. %q)", "noc=0.5,dram=0.5")
	}
	return out, nil
}

// Project returns the projected end-to-end cycles with the given
// per-parameter factors applied to the report's critical-path buckets: a
// class scaled by f contributes f times its bucket. The projection is
// linear in the buckets — its known blind spots (critical-tile switching,
// latency hiding when slowing a resource down) are documented in
// DESIGN.md; Gap on the chains bounds the first.
func (r *Report) Project(scales map[string]float64) int64 {
	factor := [NumClasses]float64{}
	for c := range factor {
		factor[c] = 1
	}
	for k, f := range scales {
		for _, c := range scaleKeys[k] {
			factor[c] *= f
		}
	}
	var proj float64
	for _, b := range r.Buckets {
		c := classIndex(b.Class)
		proj += float64(b.Cycles) * factor[c]
	}
	return int64(math.Round(proj))
}

func classIndex(name string) Class {
	for c := 0; c < NumClasses; c++ {
		if classNames[c] == name {
			return Class(c)
		}
	}
	return ClassBarrier // unknown classes project as unscalable
}

// BuildReport renders a frozen profile into its serializable report.
func BuildReport(p *Profile) *Report {
	r := &Report{
		Cycles:    p.Cycles,
		Intervals: len(p.Intervals) + p.Spilled,
		Truncated: p.Spilled > 0,
	}
	total := p.Cycles
	if total <= 0 {
		total = 1
	}
	for c := 0; c < NumClasses; c++ {
		r.Buckets = append(r.Buckets, Bucket{
			Class:  Class(c).String(),
			Cycles: p.Buckets[c],
			Frac:   float64(p.Buckets[c]) / float64(total),
		})
	}
	for _, param := range slackParams {
		halved := r.Project(map[string]float64{param: 0.5})
		doubled := r.Project(map[string]float64{param: 2})
		r.Slack = append(r.Slack, Slack{
			Param:   param,
			Halved:  halved,
			Doubled: doubled,
			Slack:   p.Cycles - halved,
		})
	}
	// Top chains: longest windows first, deterministic tie-break on End.
	idx := make([]int, len(p.Intervals))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ia, ib := &p.Intervals[idx[a]], &p.Intervals[idx[b]]
		if ia.Window != ib.Window {
			return ia.Window > ib.Window
		}
		return ia.End < ib.End
	})
	for i := 0; i < len(idx) && i < topChains; i++ {
		iv := &p.Intervals[idx[i]]
		dom, domCycles := ClassBarrier, int64(-1)
		for c := 0; c < NumClasses; c++ {
			if iv.Delta[c] > domCycles {
				dom, domCycles = Class(c), iv.Delta[c]
			}
		}
		r.TopChains = append(r.TopChains, Chain{
			End: iv.End, Window: iv.Window, Tile: iv.Tile, Gap: iv.Gap,
			Dominant: dom.String(), DomCycles: domCycles,
		})
	}
	return r
}
