package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	spec := "seed=42;kill@3000:t12;drop@1000-9000:12>13:p0.05:req;stick@2000:t9:d500;flip@2500:t3:o64:b7"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || len(p.Events) != 4 {
		t.Fatalf("seed %d, %d events", p.Seed, len(p.Events))
	}
	want := []Event{
		{Kind: KillTile, Cycle: 3000, Tile: 12},
		{Kind: DropFlit, Cycle: 1000, Until: 9000, From: 12, To: 13, Prob: 0.05, Plane: PlaneReq},
		{Kind: StickInetQueue, Cycle: 2000, Tile: 9, Duration: 500},
		{Kind: FlipSpadWord, Cycle: 2500, Tile: 3, Offset: 64, Bit: 7},
	}
	if !reflect.DeepEqual(p.Events, want) {
		t.Fatalf("events %+v\nwant %+v", p.Events, want)
	}
	// String must re-parse to the same plan — including the open-ended
	// link-window form.
	p.Events = append(p.Events, Event{Kind: CorruptFlit, Cycle: 7, From: 1, To: 2, Prob: 0.5, Plane: PlaneBoth})
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", p.String(), err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatalf("round trip changed the plan:\n%v\n%v", p, p2)
	}
	if err := p.Validate(64); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	for _, tc := range []struct{ spec, verb, field string }{
		{"boom@100:t1", "boom", ""},                         // unknown kind
		{"kill@x:t1", "", "x"},                              // bad cycle
		{"kill@100", "kill", ""},                            // missing tile
		{"drop@0:1>2", "drop", ""},                          // missing probability
		{"drop@0:12:p0.5", "", "12"},                        // malformed link
		{"flip@0:t1:o4:b40", "", "40"},                      // bit out of range
		{"stick@0:t1", "stick", ""},                         // missing duration
		{"seed=zz", "", "zz"},                               // bad seed
		{"drop@0:1>2:p.5:up", "", "up"},                     // unknown plane
		{"flip@5:t1:o-4:b3", "flip", "o-4"},                 // negative offset: uint32(off) would wrap it to 4294967292
		{"flip@5:t1:o4294967296:b3", "flip", "o4294967296"}, // offset past uint32
		// A trailing argument is a typo, not a comment.
		{"kill@3000:t12:zzz", "kill", "zzz"},
		{"panic@3000:t12:t13", "panic", "t13"},
		{"stick@5:t1:d5:t9", "stick", "t9"},
		{"flip@5:t1:o4:b3:b4", "flip", "b4"},
		{"drop@5:1>2:p0.5:req:both", "drop", "both"},
		{"corrupt@5:1>2:p0.5:req:x", "corrupt", "x"},
		{"cutlink@5:1>2:req:both", "cutlink", "both"},
		{"killrouter@5:t1:t2", "killrouter", "t2"},
		{"killbank@5:b1:b2", "killbank", "b2"},
		{"dramdegrade@5:x2:junk", "dramdegrade", "junk"},
	} {
		_, err := Parse(tc.spec)
		if err == nil {
			t.Errorf("Parse(%q) accepted", tc.spec)
			continue
		}
		for _, want := range []string{tc.verb, tc.field} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Parse(%q): error %q does not name %q", tc.spec, err, want)
			}
		}
	}
}

// TestVerbTable holds the rows of verbs to the rules Parse, String and the
// ladder's carry-over derive from them.
func TestVerbTable(t *testing.T) {
	names := map[string]Kind{}
	var permanents, perFlit []string
	for k := KillTile; k < numKinds; k++ {
		v := verbs[k]
		if v.name == "" {
			t.Fatalf("kind %d has no row in verbs", k)
		}
		if prev, dup := names[v.name]; dup {
			t.Errorf("kinds %d and %d are both named %q", prev, k, v.name)
		}
		names[v.name] = k
		if got := kindOf(v.name); got != k || k.String() != v.name {
			t.Errorf("%q parses back to kind %d, String %q; want kind %d", v.name, got, k.String(), k)
		}
		for i, o := range v.operands {
			if o.optional() && i != len(v.operands)-1 {
				t.Errorf("%s: optional operand %d is not last", v.name, i)
			}
		}
		if v.flags&permanent != 0 {
			permanents = append(permanents, v.name)
		}
		if k.perFlit() {
			perFlit = append(perFlit, v.name)
		}
	}
	if want := []string{"cutlink", "killrouter", "killbank", "dramdegrade"}; !reflect.DeepEqual(permanents, want) {
		t.Errorf("permanent rows %v, want %v", permanents, want)
	}
	if want := []string{"drop", "corrupt"}; !reflect.DeepEqual(perFlit, want) {
		t.Errorf("per-flit rows %v, want %v", perFlit, want)
	}
	if kindOf("boom") != numKinds || numKinds.String() != "kind(10)" {
		t.Error("an unknown verb resolved to a row")
	}
}

// TestEventPermanent: a restart carries over exactly the permanent rows, a
// windowed one only while open-ended.
func TestEventPermanent(t *testing.T) {
	for _, c := range []struct {
		e    Event
		want bool
	}{
		{Event{Kind: CutLink, Cycle: 5, From: 1, To: 2}, true},
		{Event{Kind: KillRouter, Tile: 9}, true},
		{Event{Kind: KillBank, Bank: 3}, true},
		{Event{Kind: DramDegrade, Cycle: 400, Factor: 2}, true},
		{Event{Kind: DramDegrade, Cycle: 100, Until: 900, Factor: 2}, false},
		{Event{Kind: KillTile, Tile: 3}, false},
		{Event{Kind: DropFlit, From: 1, To: 2, Prob: 1}, false},
		{Event{Kind: numKinds}, false},
	} {
		if got := c.e.Permanent(); got != c.want {
			t.Errorf("%v.Permanent() = %v, want %v", c.e, got, c.want)
		}
	}
}

// TestEventStringRoundTrips holds Parse(e.String()) == e for one event of
// every verb in the table, optional fields both set and defaulted.
func TestEventStringRoundTrips(t *testing.T) {
	covered := map[Kind]bool{}
	for _, e := range []Event{
		{Kind: KillTile, Cycle: 3000, Tile: 12},
		{Kind: PanicTile, Cycle: 7, Tile: 1},
		{Kind: DropFlit, Cycle: 1000, Until: 9000, From: 12, To: 13, Prob: 0.05, Plane: PlaneReq},
		{Kind: CorruptFlit, Cycle: 7, From: 1, To: 2, Prob: 0.5, Plane: PlaneBoth},
		{Kind: StickInetQueue, Cycle: 2000, Tile: 9, Duration: 500},
		{Kind: FlipSpadWord, Cycle: 2500, Tile: 3, Offset: math.MaxUint32 &^ 3, Bit: 31},
		{Kind: CutLink, Cycle: 100, From: 3, To: 4, Plane: PlaneResp},
		{Kind: KillRouter, Cycle: 50, Tile: 9},
		{Kind: KillBank, Cycle: 10, Bank: 2},
		{Kind: DramDegrade, Cycle: 100, Until: 900, Factor: 2.5},
		{Kind: DramDegrade, Cycle: 400, Factor: 3},
	} {
		covered[e.Kind] = true
		p, err := Parse(e.String())
		if err != nil {
			t.Errorf("Parse(%q): %v", e.String(), err)
			continue
		}
		if len(p.Events) != 1 || p.Events[0] != e {
			t.Errorf("Parse(%q) = %+v, want %+v", e.String(), p.Events, e)
		}
	}
	for k := KillTile; k < numKinds; k++ {
		if !covered[k] {
			t.Errorf("verb %s has no round-trip case", k)
		}
	}
}

func TestValidate(t *testing.T) {
	bad := []Plan{
		{Events: []Event{{Kind: KillTile, Tile: 64}}},
		{Events: []Event{{Kind: KillTile, Tile: -1}}},
		{Events: []Event{{Kind: DropFlit, From: 0, To: 99, Prob: 0.5}}},
		{Events: []Event{{Kind: DropFlit, From: 0, To: 1, Prob: 1.5}}},
		{Events: []Event{{Kind: DropFlit, From: 0, To: 1, Prob: 0.5, Cycle: 100, Until: 50}}},
		{Events: []Event{{Kind: KillTile, Tile: 1, Cycle: -5}}},
		{Events: []Event{{Kind: StickInetQueue, Tile: 1, Duration: 0}}},
		// A link joins two distinct routers, whichever verb names it.
		{Events: []Event{{Kind: CorruptFlit, From: 3, To: 3, Prob: 1}}},
		{Events: []Event{{Kind: DropFlit, From: 5, To: 5, Prob: 0.5}}},
		{Events: []Event{{Kind: CutLink, From: 5, To: 5}}},
	}
	for i := range bad {
		if err := bad[i].Validate(64); err == nil {
			t.Errorf("plan %d (%v) validated", i, &bad[i])
		}
	}
	// A probability or factor must be a finite number; the error names the
	// verb and the field.
	for _, c := range []struct {
		spec, field string
	}{
		{"drop@0:0>1:pNaN", "probability"},
		{"dramdegrade@0:xInf", "factor"},
		{"dramdegrade@0:xNaN", "factor"},
	} {
		p, err := Parse(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		err = p.Validate(64)
		verb, _, _ := strings.Cut(c.spec, "@")
		if err == nil || !strings.Contains(err.Error(), verb) || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: Validate = %v, want an error naming %s and %s", c.spec, err, verb, c.field)
		}
	}
	ok := Plan{Events: []Event{
		{Kind: KillTile, Tile: 63, Cycle: 1},
		{Kind: DropFlit, From: 0, To: 1, Prob: 1, Cycle: 0},
	}}
	if err := ok.Validate(64); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
}

func TestKillPlanDeterministic(t *testing.T) {
	a := KillPlan(7, 8, 64, 1000, 500)
	b := KillPlan(7, 8, 64, 1000, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different plans")
	}
	if len(a.Events) != 8 {
		t.Fatalf("%d events, want 8", len(a.Events))
	}
	seen := map[int]bool{}
	for i, e := range a.Events {
		if e.Kind != KillTile {
			t.Fatalf("event %d kind %v", i, e.Kind)
		}
		if seen[e.Tile] {
			t.Fatalf("tile %d killed twice", e.Tile)
		}
		seen[e.Tile] = true
		if e.Cycle != 1000+int64(i)*500 {
			t.Errorf("event %d at cycle %d, want %d", i, e.Cycle, 1000+int64(i)*500)
		}
	}
	if err := a.Validate(64); err != nil {
		t.Fatal(err)
	}
	// n is clamped to the fabric size.
	if got := len(KillPlan(7, 100, 64, 0, 1).Events); got != 64 {
		t.Errorf("overfull kill plan has %d events, want 64", got)
	}
}

func TestInjectorDiscrete(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: KillTile, Cycle: 500, Tile: 2},
		{Kind: KillTile, Cycle: 100, Tile: 1},
		{Kind: StickInetQueue, Cycle: 100, Tile: 3, Duration: 50},
	}}
	inj := NewInjector(p)
	if got := inj.NextDiscrete(); got != 100 {
		t.Fatalf("NextDiscrete = %d, want 100", got)
	}
	ev := inj.TakeDiscrete(100)
	if len(ev) != 2 {
		t.Fatalf("took %d events at cycle 100, want 2", len(ev))
	}
	if got := inj.NextDiscrete(); got != 500 {
		t.Fatalf("NextDiscrete = %d, want 500", got)
	}
	if ev = inj.TakeDiscrete(400); len(ev) != 0 {
		t.Fatalf("took %v before its cycle", ev)
	}
	if ev = inj.TakeDiscrete(600); len(ev) != 1 || ev[0].Tile != 2 {
		t.Fatalf("took %v, want the tile-2 kill", ev)
	}
	fired := inj.Fired()
	if len(fired) != 3 {
		t.Fatalf("fired %v, want all 3", fired)
	}
	// Stripping the fired events empties the plan.
	if rest := p.Without(fired); len(rest.Events) != 0 {
		t.Fatalf("Without left %v", rest.Events)
	}
}

func TestInjectorJudge(t *testing.T) {
	p := &Plan{Seed: 9, Events: []Event{
		{Kind: DropFlit, Cycle: 100, Until: 200, From: 1, To: 2, Prob: 1, Plane: PlaneReq},
	}}
	inj := NewInjector(p)
	if !inj.HasLinkFaults() {
		t.Fatal("link fault not detected")
	}
	if v := inj.Judge(PlaneReq, 50, 1, 2); v != VerdictOK {
		t.Error("fired before the window")
	}
	if v := inj.Judge(PlaneReq, 200, 1, 2); v != VerdictOK {
		t.Error("fired at the exclusive window end")
	}
	if v := inj.Judge(PlaneResp, 150, 1, 2); v != VerdictOK {
		t.Error("fired on the wrong plane")
	}
	if v := inj.Judge(PlaneReq, 150, 2, 1); v != VerdictOK {
		t.Error("fired on the reverse link")
	}
	if v := inj.Judge(PlaneReq, 150, 1, 2); v != VerdictDrop {
		t.Errorf("verdict %v, want drop", v)
	}
	if fired := inj.Fired(); len(fired) != 1 {
		t.Errorf("fired %v", fired)
	}
	// Identical injectors give identical verdict sequences.
	a, b := NewInjector(p), NewInjector(p)
	for now := int64(100); now < 200; now++ {
		if a.Judge(PlaneReq, now, 1, 2) != b.Judge(PlaneReq, now, 1, 2) {
			t.Fatalf("verdicts diverged at cycle %d", now)
		}
	}
}

func TestParseTopologyRoundTrip(t *testing.T) {
	spec := "cutlink@100:3>4;cutlink@200:5>6:req;killrouter@50:t9;killbank@10:b2;dramdegrade@100-900:x2.5;dramdegrade@400:x3"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: CutLink, Cycle: 100, From: 3, To: 4, Plane: PlaneBoth},
		{Kind: CutLink, Cycle: 200, From: 5, To: 6, Plane: PlaneReq},
		{Kind: KillRouter, Cycle: 50, Tile: 9},
		{Kind: KillBank, Cycle: 10, Bank: 2},
		{Kind: DramDegrade, Cycle: 100, Until: 900, Factor: 2.5},
		{Kind: DramDegrade, Cycle: 400, Factor: 3},
	}
	if !reflect.DeepEqual(p.Events, want) {
		t.Fatalf("events %+v\nwant %+v", p.Events, want)
	}
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", p.String(), err)
	}
	if !reflect.DeepEqual(p, p2) {
		t.Fatalf("round trip changed the plan:\n%v\n%v", p, p2)
	}
	if err := p.ValidateGeometry(Geometry{Cores: 64, MeshW: 8, MeshH: 8, Banks: 16}); err != nil {
		t.Fatal(err)
	}
}

func TestParseTopologyErrors(t *testing.T) {
	for _, spec := range []string{
		"cutlink@100:3",        // malformed link
		"cutlink@100:3>x",      // bad endpoint
		"cutlink@100:3>4:up",   // unknown plane
		"killrouter@50:9",      // missing t prefix
		"killbank@10:2",        // missing b prefix
		"killbank@10:b",        // empty bank
		"dramdegrade@100:2.5",  // missing x prefix
		"dramdegrade@100:x0.5", // factor below 1 (rejected at validate or parse)
		"dramdegrade@100",      // missing factor
	} {
		p, err := Parse(spec)
		if err == nil {
			// A parse that slips through must at least fail validation.
			if verr := p.Validate(64); verr == nil {
				t.Errorf("Parse(%q) accepted and validated", spec)
			}
		}
	}
}

func TestValidateGeometry(t *testing.T) {
	g := Geometry{Cores: 64, MeshW: 8, MeshH: 8, Banks: 16}
	bad := []Plan{
		// Same row but not adjacent.
		{Events: []Event{{Kind: CutLink, From: 3, To: 5}}},
		// Row wrap: 7 and 8 are id-adjacent but sit on different rows.
		{Events: []Event{{Kind: CutLink, From: 7, To: 8}}},
		// Diagonal.
		{Events: []Event{{Kind: CutLink, From: 0, To: 9}}},
		{Events: []Event{{Kind: KillBank, Bank: 16}}},
		{Events: []Event{{Kind: KillBank, Bank: -1}}},
		{Events: []Event{{Kind: DramDegrade, Factor: 0.5}}},
		{Events: []Event{{Kind: DramDegrade, Factor: 2, Cycle: 100, Until: 50}}},
		// Flits only cross links between mesh neighbours: a drop or corrupt
		// window on any other pair would never fire.
		{Events: []Event{{Kind: DropFlit, From: 0, To: 5, Prob: 1}}},
		{Events: []Event{{Kind: CorruptFlit, From: 7, To: 8, Prob: 1}}},
	}
	for i := range bad {
		if err := bad[i].ValidateGeometry(g); err == nil {
			t.Errorf("plan %d (%v) validated", i, &bad[i])
		}
	}
	ok := Plan{Events: []Event{
		{Kind: CutLink, From: 3, To: 4, Cycle: 1},
		{Kind: CutLink, From: 0, To: 8, Cycle: 1}, // vertical neighbor
		{Kind: KillRouter, Tile: 63, Cycle: 1},
		{Kind: KillBank, Bank: 15, Cycle: 1},
		{Kind: DramDegrade, Factor: 1.5, Cycle: 1},
		{Kind: DropFlit, From: 12, To: 13, Prob: 0.05, Cycle: 1},
		{Kind: CorruptFlit, From: 20, To: 12, Prob: 1, Cycle: 1},
		{Kind: KillTile, Tile: 2, Cycle: 1},
		{Kind: PanicTile, Tile: 5, Cycle: 1},
		{Kind: StickInetQueue, Tile: 3, Duration: 5, Cycle: 1},
		{Kind: FlipSpadWord, Tile: 4, Offset: 64, Bit: 7, Cycle: 1},
	}}
	if err := ok.ValidateGeometry(g); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
	// Checking a plan on the success path allocates nothing: the machine
	// validates every attempt of a recovery ladder.
	if n := testing.AllocsPerRun(100, func() { _ = ok.ValidateGeometry(g) }); n != 0 {
		t.Errorf("ValidateGeometry allocates %v times on a good plan", n)
	}
	// KillRouter outside a smaller mesh than the core count implies.
	small := Geometry{Cores: 64, MeshW: 4, MeshH: 4, Banks: 8}
	p := Plan{Events: []Event{{Kind: KillRouter, Tile: 20, Cycle: 1}}}
	if err := p.ValidateGeometry(small); err == nil {
		t.Error("router outside the mesh validated")
	}
}

func TestLinkPlanDeterministic(t *testing.T) {
	a := LinkPlan(7, 6, 8, 8, 1000, 500)
	b := LinkPlan(7, 6, 8, 8, 1000, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different plans")
	}
	if len(a.Events) != 6 {
		t.Fatalf("%d events, want 6", len(a.Events))
	}
	g := Geometry{Cores: 64, MeshW: 8, MeshH: 8, Banks: 16}
	if err := a.ValidateGeometry(g); err != nil {
		t.Fatalf("link plan fails its own geometry: %v", err)
	}
	seen := map[[2]int]bool{}
	for i, e := range a.Events {
		if e.Kind != CutLink {
			t.Fatalf("event %d kind %v", i, e.Kind)
		}
		key := [2]int{e.From, e.To}
		if seen[key] {
			t.Fatalf("link %d>%d cut twice", e.From, e.To)
		}
		seen[key] = true
		if e.Cycle != 1000+int64(i)*500 {
			t.Errorf("event %d at cycle %d, want %d", i, e.Cycle, 1000+int64(i)*500)
		}
	}
	// A different seed draws a different cut set.
	if reflect.DeepEqual(LinkPlan(8, 6, 8, 8, 1000, 500).Events, a.Events) {
		t.Error("different seeds produced identical cut sets")
	}
	// n is clamped to the edge count: a 2x2 mesh has 4 edges.
	if got := len(LinkPlan(7, 100, 2, 2, 0, 1).Events); got != 4 {
		t.Errorf("overfull link plan has %d events, want 4", got)
	}
}

func TestBankPlanDeterministic(t *testing.T) {
	a := BankPlan(7, 4, 16, 1000, 500)
	b := BankPlan(7, 4, 16, 1000, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different plans")
	}
	if len(a.Events) != 4 {
		t.Fatalf("%d events, want 4", len(a.Events))
	}
	seen := map[int]bool{}
	for i, e := range a.Events {
		if e.Kind != KillBank {
			t.Fatalf("event %d kind %v", i, e.Kind)
		}
		if seen[e.Bank] {
			t.Fatalf("bank %d killed twice", e.Bank)
		}
		seen[e.Bank] = true
		if e.Cycle != 1000+int64(i)*500 {
			t.Errorf("event %d at cycle %d, want %d", i, e.Cycle, 1000+int64(i)*500)
		}
	}
	// n is clamped to banks-1: at least one bank must survive.
	if got := len(BankPlan(7, 100, 16, 0, 1).Events); got != 15 {
		t.Errorf("overfull bank plan has %d events, want 15", got)
	}
	if got := len(BankPlan(7, 3, 1, 0, 1).Events); got != 0 {
		t.Errorf("single-bank plan has %d events, want 0", got)
	}
}

func TestMergeComposesPlans(t *testing.T) {
	a := LinkPlan(7, 2, 8, 8, 100, 10)
	b := BankPlan(7, 1, 16, 300, 10)
	m := Merge(a, b)
	if m.Seed != a.Seed || len(m.Events) != 3 {
		t.Fatalf("merge seed %d, %d events", m.Seed, len(m.Events))
	}
	if !reflect.DeepEqual(m.Events[:2], a.Events) || !reflect.DeepEqual(m.Events[2:], b.Events) {
		t.Fatal("merge reordered events")
	}
	// Merge copies: growing the merged plan must not alias the inputs.
	m.Events = append(m.Events, Event{Kind: KillTile, Tile: 1, Cycle: 1})
	if len(a.Events) != 2 || len(b.Events) != 1 {
		t.Fatal("merge aliased its inputs")
	}
}

func TestWithoutKeepsUnfired(t *testing.T) {
	p := &Plan{Seed: 3, Events: []Event{
		{Kind: KillTile, Cycle: 10, Tile: 1},
		{Kind: KillTile, Cycle: 20, Tile: 2},
		{Kind: KillTile, Cycle: 30, Tile: 3},
	}}
	rest := p.Without([]int{0, 2})
	if rest.Seed != 3 || len(rest.Events) != 1 || rest.Events[0].Tile != 2 {
		t.Fatalf("Without kept %v", rest.Events)
	}
}
