package fault

import "testing"

// FuzzParse checks the schedule DSL never panics on arbitrary input and
// that every accepted plan round-trips: parsing the plan's own String()
// must succeed and reach a fixed point. Plans are compared by canonical
// string rather than DeepEqual so pathological-but-accepted floats (NaN
// probabilities) don't produce false mismatches.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"seed=42;kill@3000:t12",
		"drop@1000-9000:12>13:p0.05:req",
		"corrupt@500:3>4:p1:resp",
		"stick@2000:t9:d500",
		"flip@2500:t3:o64:b7",
		"seed=1;kill@1:t0;drop@2-3:0>1:p0.5:both;stick@4:t1:d1;flip@5:t2:o0:b31",
		"kill@-1:t-2",
		"drop@5-:1>2:p1e-3",
		"flip@0:t0:o4294967292:b0",
		"cutlink@100:3>4",
		"cutlink@100:3>4:req",
		"cutlink@0:63>62:resp",
		"killrouter@50:t9",
		"killbank@10:b2",
		"dramdegrade@100-900:x2.5",
		"dramdegrade@400:x3",
		"seed=5;cutlink@1:0>1;killbank@2:b0;dramdegrade@3:x1",
		// Trailing arguments and a negative offset: rejected.
		"kill@3000:t12:zzz",
		"cutlink@5:1>2:req:both",
		"dramdegrade@5:x2:junk",
		"stick@5:t1:d5:t9",
		"flip@5:t1:o-4:b3",
		"panic@9:t3",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		s := p.String()
		p2, err := Parse(s)
		if err != nil {
			t.Fatalf("round-trip parse of %q (from %q) failed: %v", s, spec, err)
		}
		if len(p2.Events) != len(p.Events) || p2.Seed != p.Seed {
			t.Fatalf("round-trip of %q changed shape: %d/%d events, seed %d/%d",
				spec, len(p.Events), len(p2.Events), p.Seed, p2.Seed)
		}
		if s2 := p2.String(); s2 != s {
			t.Fatalf("round-trip of %q not a fixed point: %q != %q", spec, s, s2)
		}
	})
}
