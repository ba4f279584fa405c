package fault

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// The verb table: one row per Kind. Everything this package knows about a
// verb's *shape* — its DSL name, its cycle form, the fields that follow it
// and how each is parsed, printed and checked — is read from verbs. What a
// verb *does* lives in the machine's applyFaults (and, for the per-flit
// verbs, in the verdict Injector.Judge returns), and nowhere else.

// operand is one field of an event after its cycle form.
type operand uint8

const (
	opTile     operand = iota // tN: Tile, a core in [0,cores)
	opRouter                  // tN: Tile, a core whose router also sits inside the mesh
	opLink                    // A>B: From, To — distinct, mesh-adjacent routers
	opProb                    // pP: Prob in [0,1]; a row with one is judged per flit
	opPlane                   // req|resp|both: Plane; optional (default both), always last
	opDuration                // dN: Duration > 0
	opOffset                  // oN: Offset, a byte offset in [0, 2^32)
	opBit                     // bN: Bit in [0,31]
	opBank                    // bN: Bank, an LLC bank in [0,banks)
	opFactor                  // xF: Factor, finite and >= 1
)

// cycleForm is how an event's activation is written.
type cycleForm uint8

const (
	at     cycleForm = iota // C: Cycle
	window                  // C[-U]: Cycle, and Until (exclusive; absent = 0 = open-ended)
)

// flags are the properties of a verb its operand list does not imply.
type flags uint8

// permanent: a fresh machine would heal the event, so a restarted attempt
// carries it over at cycle 0 — a windowed row only while open-ended.
const permanent flags = 1

// verb is one row of the table.
type verb struct {
	name     string
	form     cycleForm
	operands []operand // in DSL order
	flags    flags
}

type ops = []operand

// verbs describes every fault verb, indexed by Kind. It is read-only.
var verbs = [numKinds]verb{
	KillTile:       {"kill", at, ops{opTile}, 0},
	DropFlit:       {"drop", window, ops{opLink, opProb, opPlane}, 0},
	CorruptFlit:    {"corrupt", window, ops{opLink, opProb, opPlane}, 0},
	StickInetQueue: {"stick", at, ops{opTile, opDuration}, 0},
	FlipSpadWord:   {"flip", at, ops{opTile, opOffset, opBit}, 0},
	PanicTile:      {"panic", at, ops{opTile}, 0},
	CutLink:        {"cutlink", at, ops{opLink, opPlane}, permanent},
	KillRouter:     {"killrouter", at, ops{opRouter}, permanent},
	KillBank:       {"killbank", at, ops{opBank}, permanent},
	DramDegrade:    {"dramdegrade", window, ops{opFactor}, permanent},
}

// kindOf returns the Kind whose row is named name, or numKinds if none is.
func kindOf(name string) Kind {
	k := KillTile
	for k < numKinds && verbs[k].name != name {
		k++
	}
	return k
}

// perFlit reports whether events of kind k are judged per flit crossing
// their link rather than fired once at their cycle.
func (k Kind) perFlit() bool { return k < numKinds && slices.Contains(verbs[k].operands, opProb) }

// Permanent reports whether a fresh machine would heal e — a cut link, a
// dead router or bank, an open-ended DRAM degradation — so a restarted
// attempt must re-apply it at cycle 0.
func (e Event) Permanent() bool {
	if e.Kind >= numKinds {
		return false
	}
	v := &verbs[e.Kind]
	return v.flags&permanent != 0 && (v.form == at || e.Until == 0)
}

// optional reports whether the DSL may omit o.
func (o operand) optional() bool { return o == opPlane }

// parse reads DSL field s into o's field of e.
func (o operand) parse(e *Event, s string) (err error) {
	var n int64
	switch o {
	case opTile, opRouter:
		n, err = intArg(s, "t")
		e.Tile = int(n)
	case opLink:
		from, to, ok := strings.Cut(s, ">")
		if !ok {
			return fmt.Errorf("want A>B link, got %q", s)
		}
		a, errA := strconv.Atoi(from)
		b, errB := strconv.Atoi(to)
		if errA != nil || errB != nil {
			return fmt.Errorf("bad link %q", s)
		}
		e.From, e.To = a, b
	case opProb:
		e.Prob, err = floatArg(s, "p", "prob", "probability")
	case opPlane:
		e.Plane, err = planeArg(s)
	case opDuration:
		e.Duration, err = intArg(s, "d")
	case opOffset:
		if n, err = intArg(s, "o"); err == nil && (n < 0 || n > math.MaxUint32) {
			err = fmt.Errorf("flip offset %q outside [0, 2^32)", s)
		}
		e.Offset = uint32(n)
	case opBit:
		if n, err = intArg(s, "b"); err == nil && (n < 0 || n > 31) {
			err = fmt.Errorf("bit %d outside [0,31]", n)
		}
		e.Bit = uint8(n)
	case opBank:
		n, err = intArg(s, "b")
		e.Bank = int(n)
	case opFactor:
		e.Factor, err = floatArg(s, "x", "factor", "factor")
	}
	return err
}

// appendTo appends o's field of e as the DSL writes it.
func (o operand) appendTo(b []byte, e *Event) []byte {
	switch o {
	case opTile, opRouter:
		return fmt.Appendf(b, "t%d", e.Tile)
	case opLink:
		return fmt.Appendf(b, "%d>%d", e.From, e.To)
	case opProb:
		return fmt.Appendf(b, "p%g", e.Prob)
	case opPlane:
		return append(b, e.Plane.String()...)
	case opDuration:
		return fmt.Appendf(b, "d%d", e.Duration)
	case opOffset:
		return fmt.Appendf(b, "o%d", e.Offset)
	case opBit:
		return fmt.Appendf(b, "b%d", e.Bit)
	case opBank:
		return fmt.Appendf(b, "b%d", e.Bank)
	}
	return fmt.Appendf(b, "x%g", e.Factor) // opFactor
}

// problem returns what is wrong with e in fabric g, or "" when nothing is:
// each operand's check in DSL order, then the cycle form's. A zero g.MeshW
// means only the core count is known.
func (e *Event) problem(g Geometry) string {
	v := &verbs[e.Kind]
	for _, o := range v.operands {
		if msg := o.check(e, g); msg != "" {
			return msg
		}
	}
	switch {
	case v.form == window && e.Until != 0 && e.Until <= e.Cycle:
		return "window ends before it starts"
	case e.Cycle < 0:
		return "negative cycle"
	}
	return ""
}

// check returns what is wrong with o's field of e in fabric g, or "" when
// nothing is. The range checks need only g.Cores; the shape checks — a
// router outside the mesh, a link between routers that are not neighbours,
// a bank that does not exist — run only when g.MeshW is known.
func (o operand) check(e *Event, g Geometry) string {
	shape, routers := g.MeshW > 0, g.MeshW*g.MeshH
	switch o {
	case opTile, opRouter:
		if e.Tile < 0 || e.Tile >= g.Cores {
			return fmt.Sprintf("tile %d out of range [0,%d)", e.Tile, g.Cores)
		}
		if o == opRouter && shape && e.Tile >= routers {
			return fmt.Sprintf("router %d outside %dx%d mesh", e.Tile, g.MeshW, g.MeshH)
		}
	case opLink:
		if e.From < 0 || e.From >= g.Cores || e.To < 0 || e.To >= g.Cores {
			return fmt.Sprintf("link endpoint out of range [0,%d)", g.Cores)
		}
		if e.From == e.To {
			return "link endpoints must differ"
		}
		if !shape {
			break
		}
		if e.From >= routers || e.To >= routers {
			return fmt.Sprintf("router outside %dx%d mesh", g.MeshW, g.MeshH)
		}
		dx, dy := e.From%g.MeshW-e.To%g.MeshW, e.From/g.MeshW-e.To/g.MeshW
		if dx*dx+dy*dy != 1 {
			return fmt.Sprintf("routers %d and %d are not mesh-adjacent in a %dx%d mesh",
				e.From, e.To, g.MeshW, g.MeshH)
		}
	case opProb:
		if !(e.Prob >= 0 && e.Prob <= 1) { // NaN included
			return fmt.Sprintf("probability %g outside [0,1]", e.Prob)
		}
	case opDuration:
		if e.Duration <= 0 {
			return "stick duration must be positive"
		}
	case opBank:
		if e.Bank < 0 {
			return "negative bank index"
		}
		if shape && e.Bank >= g.Banks {
			return fmt.Sprintf("bank %d out of range [0,%d)", e.Bank, g.Banks)
		}
	case opFactor:
		if e.Factor < 1 {
			return fmt.Sprintf("degrade factor %g must be >= 1", e.Factor)
		}
		if math.IsNaN(e.Factor) || math.IsInf(e.Factor, 0) {
			return fmt.Sprintf("degrade factor %g must be finite", e.Factor)
		}
	}
	return ""
}
