package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads the -faults schedule syntax: semicolon-separated events plus
// an optional seed, e.g.
//
//	seed=42;kill@3000:t12;drop@1000-9000:12>13:p0.05:req;stick@2000:t9:d500;flip@2500:t3:o64:b7
//
// Event forms (C, U are cycles; T, A, B tile ids):
//
//	kill@C:tT            kill tile T at cycle C
//	drop@C-U:A>B:pP[:plane]     drop flits on link A->B with prob P in [C,U)
//	corrupt@C-U:A>B:pP[:plane]  corrupt (CRC-detected) instead of drop
//	stick@C:tT:dD        freeze tile T's inet queue for D cycles
//	flip@C:tT:oOFF:bBIT  flip bit BIT of spad word at byte offset OFF
//	panic@C:tT           tile T's core panics at cycle C (crash containment)
//	cutlink@C:A>B[:plane]  permanently cut the mesh link A-B at cycle C
//	killrouter@C:tT      power router T off (links, core, attached bank)
//	killbank@C:bB        decommission LLC bank B; slice remaps to survivors
//	dramdegrade@C-U:xM   multiply DRAM latency by M during [C,U)
//
// For windowed faults U may be omitted (drop@C:A>B:pP, dramdegrade@C:x2)
// for an open-ended window; plane is req, resp, or both (default both).
// Each form is one row of the verb table (verbs.go).
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	for _, raw := range strings.Split(spec, ";") {
		s := strings.TrimSpace(raw)
		if s == "" {
			continue
		}
		if v, ok := strings.CutPrefix(s, "seed="); ok {
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q", v)
			}
			p.Seed = seed
			continue
		}
		kind, rest, ok := strings.Cut(s, "@")
		if !ok {
			return nil, fmt.Errorf("fault: %q: want kind@cycle:...", s)
		}
		fields := strings.Split(rest, ":")
		e, err := parseEvent(kind, fields)
		if err != nil {
			return nil, fmt.Errorf("fault: %q: %w", s, err)
		}
		p.Events = append(p.Events, e)
	}
	return p, nil
}

// parseEvent reads one event: the cycle form in fields[0], then one field per
// operand of the verb's row.
func parseEvent(name string, fields []string) (Event, error) {
	e := Event{Kind: kindOf(name)}
	if e.Kind == numKinds {
		return e, fmt.Errorf("unknown fault kind %q", name)
	}
	v := &verbs[e.Kind]
	start, until, windowed := fields[0], "", false
	if v.form == window {
		start, until, windowed = strings.Cut(fields[0], "-")
	}
	var err error
	if e.Cycle, err = strconv.ParseInt(start, 10, 64); err != nil {
		return e, fmt.Errorf("bad cycle %q", start)
	}
	if windowed && until != "" {
		if e.Until, err = strconv.ParseInt(until, 10, 64); err != nil {
			return e, fmt.Errorf("bad window end %q", until)
		}
	}
	// Arity comes from the row: a trailing field is a typo, not a comment.
	args, max := fields[1:], len(v.operands)
	required := max
	if max > 0 && v.operands[max-1].optional() {
		required--
	}
	if len(args) < required {
		return e, fmt.Errorf("%s needs %d arguments, got %d", name, required, len(args))
	}
	if len(args) > max {
		return e, fmt.Errorf("%s takes %d arguments, got unexpected %q", name, max, args[max])
	}
	for i, s := range args {
		if err := v.operands[i].parse(&e, s); err != nil {
			return e, err
		}
	}
	return e, nil
}

// intArg reads a prefixed integer field such as t12 or d500.
func intArg(s, prefix string) (int64, error) {
	v, ok := strings.CutPrefix(s, prefix)
	if !ok {
		return 0, fmt.Errorf("want %s<n>, got %q", prefix, s)
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s argument %q", prefix, s)
	}
	return n, nil
}

// floatArg reads a prefixed float field such as p0.05 or x2.5; want and
// what name the value in its two error messages.
func floatArg(s, prefix, want, what string) (float64, error) {
	v, ok := strings.CutPrefix(s, prefix)
	if !ok {
		return 0, fmt.Errorf("want %s<%s>, got %q", prefix, want, s)
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", what, s)
	}
	return f, nil
}

// planeArg reads a plane by the name Plane.String gives it.
func planeArg(s string) (Plane, error) {
	for p := PlaneBoth; p <= PlaneResp; p++ {
		if s == p.String() {
			return p, nil
		}
	}
	return PlaneBoth, fmt.Errorf("unknown plane %q", s)
}
