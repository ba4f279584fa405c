package fault

import (
	"fmt"
	"math"
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

func parseEvent(kind string, fields []string) (Event, error) {
	var e Event
	switch kind {
	case "kill", "stick", "flip", "panic", "cutlink", "killrouter", "killbank":
		c, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return e, fmt.Errorf("bad cycle %q", fields[0])
		}
		e.Cycle = c
	case "drop", "corrupt", "dramdegrade":
		start, until, windowed := strings.Cut(fields[0], "-")
		c, err := strconv.ParseInt(start, 10, 64)
		if err != nil {
			return e, fmt.Errorf("bad cycle %q", start)
		}
		e.Cycle = c
		if windowed && until != "" {
			u, err := strconv.ParseInt(until, 10, 64)
			if err != nil {
				return e, fmt.Errorf("bad window end %q", until)
			}
			e.Until = u
		}
	default:
		return e, fmt.Errorf("unknown fault kind %q", kind)
	}
	args := fields[1:]
	// arity holds the verb to its required and optional arguments: a
	// trailing field is a typo, not a comment.
	arity := func(required, optional int) error {
		if len(args) < required {
			return fmt.Errorf("%s needs %d arguments, got %d", kind, required, len(args))
		}
		if max := required + optional; len(args) > max {
			return fmt.Errorf("%s takes %d arguments, got unexpected %q", kind, max, args[max])
		}
		return nil
	}
	intArg := func(s, prefix string) (int64, error) {
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
	switch kind {
	case "kill":
		if err := arity(1, 0); err != nil {
			return e, err
		}
		t, err := intArg(args[0], "t")
		if err != nil {
			return e, err
		}
		e.Kind, e.Tile = KillTile, int(t)
	case "panic":
		if err := arity(1, 0); err != nil {
			return e, err
		}
		t, err := intArg(args[0], "t")
		if err != nil {
			return e, err
		}
		e.Kind, e.Tile = PanicTile, int(t)
	case "stick":
		if err := arity(2, 0); err != nil {
			return e, err
		}
		t, err := intArg(args[0], "t")
		if err != nil {
			return e, err
		}
		d, err := intArg(args[1], "d")
		if err != nil {
			return e, err
		}
		e.Kind, e.Tile, e.Duration = StickInetQueue, int(t), d
	case "flip":
		if err := arity(3, 0); err != nil {
			return e, err
		}
		t, err := intArg(args[0], "t")
		if err != nil {
			return e, err
		}
		off, err := intArg(args[1], "o")
		if err != nil {
			return e, err
		}
		bit, err := intArg(args[2], "b")
		if err != nil {
			return e, err
		}
		if off < 0 || off > math.MaxUint32 {
			return e, fmt.Errorf("flip offset %q outside [0, 2^32)", args[1])
		}
		if bit < 0 || bit > 31 {
			return e, fmt.Errorf("bit %d outside [0,31]", bit)
		}
		e.Kind, e.Tile, e.Offset, e.Bit = FlipSpadWord, int(t), uint32(off), uint8(bit)
	case "drop", "corrupt":
		if err := arity(2, 1); err != nil {
			return e, err
		}
		from, to, ok := strings.Cut(args[0], ">")
		if !ok {
			return e, fmt.Errorf("want A>B link, got %q", args[0])
		}
		a, errA := strconv.Atoi(from)
		b, errB := strconv.Atoi(to)
		if errA != nil || errB != nil {
			return e, fmt.Errorf("bad link %q", args[0])
		}
		pv, ok := strings.CutPrefix(args[1], "p")
		if !ok {
			return e, fmt.Errorf("want p<prob>, got %q", args[1])
		}
		prob, err := strconv.ParseFloat(pv, 64)
		if err != nil {
			return e, fmt.Errorf("bad probability %q", args[1])
		}
		e.Kind, e.From, e.To, e.Prob = DropFlit, a, b, prob
		if kind == "corrupt" {
			e.Kind = CorruptFlit
		}
		if len(args) >= 3 {
			pl, err := planeArg(args[2])
			if err != nil {
				return e, err
			}
			e.Plane = pl
		}
	case "cutlink":
		if err := arity(1, 1); err != nil {
			return e, err
		}
		from, to, ok := strings.Cut(args[0], ">")
		if !ok {
			return e, fmt.Errorf("want A>B link, got %q", args[0])
		}
		a, errA := strconv.Atoi(from)
		b, errB := strconv.Atoi(to)
		if errA != nil || errB != nil {
			return e, fmt.Errorf("bad link %q", args[0])
		}
		e.Kind, e.From, e.To = CutLink, a, b
		if len(args) >= 2 {
			pl, err := planeArg(args[1])
			if err != nil {
				return e, err
			}
			e.Plane = pl
		}
	case "killrouter":
		if err := arity(1, 0); err != nil {
			return e, err
		}
		t, err := intArg(args[0], "t")
		if err != nil {
			return e, err
		}
		e.Kind, e.Tile = KillRouter, int(t)
	case "killbank":
		if err := arity(1, 0); err != nil {
			return e, err
		}
		b, err := intArg(args[0], "b")
		if err != nil {
			return e, err
		}
		e.Kind, e.Bank = KillBank, int(b)
	case "dramdegrade":
		if err := arity(1, 0); err != nil {
			return e, err
		}
		fv, ok := strings.CutPrefix(args[0], "x")
		if !ok {
			return e, fmt.Errorf("want x<factor>, got %q", args[0])
		}
		factor, err := strconv.ParseFloat(fv, 64)
		if err != nil {
			return e, fmt.Errorf("bad factor %q", args[0])
		}
		e.Kind, e.Factor = DramDegrade, factor
	}
	return e, nil
}

func planeArg(s string) (Plane, error) {
	switch s {
	case "req":
		return PlaneReq, nil
	case "resp":
		return PlaneResp, nil
	case "both":
		return PlaneBoth, nil
	}
	return PlaneBoth, fmt.Errorf("unknown plane %q", s)
}
