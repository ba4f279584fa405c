package config

import (
	"slices"
	"strings"
	"testing"

	"rockcress/internal/alloctest"
)

// TestCanonicalPackings pins the paper's §6.2 utilization numbers: V4 forms
// 12 groups (60/64 tiles, 94%), V16 forms 3 (51/64, 80%).
func TestCanonicalPackings(t *testing.T) {
	mc := ManycoreDefault()
	cases := []struct {
		vlen, groups, tiles int
	}{
		{4, 12, 60},
		{16, 3, 51},
	}
	for _, c := range cases {
		gs, err := MakeGroups(mc, c.vlen)
		if err != nil {
			t.Fatalf("vlen %d: %v", c.vlen, err)
		}
		if len(gs) != c.groups {
			t.Errorf("vlen %d: %d groups, want %d", c.vlen, len(gs), c.groups)
		}
		tiles := 0
		for _, g := range gs {
			tiles += len(g.Tiles())
		}
		if tiles != c.tiles {
			t.Errorf("vlen %d: %d tiles used, want %d", c.vlen, tiles, c.tiles)
		}
		if err := ValidateGroups(mc, gs); err != nil {
			t.Errorf("vlen %d: %v", c.vlen, err)
		}
	}
}

// TestTreeDepth checks the forwarding tree depth the implicit-sync bound
// relies on: 2m-2 from the expander, plus the scalar hop.
func TestTreeDepth(t *testing.T) {
	mc := ManycoreDefault()
	for _, c := range []struct{ vlen, depth int }{{4, 3}, {16, 7}} {
		gs, err := MakeGroups(mc, c.vlen)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range gs {
			if d := g.TreeDepth(); d != c.depth {
				t.Errorf("vlen %d group %d: depth %d, want %d", c.vlen, g.ID, d, c.depth)
			}
		}
	}
}

// TestGreedyFallback exercises the generic placer on a non-canonical mesh.
func TestGreedyFallback(t *testing.T) {
	mc := ManycoreDefault()
	mc.MeshWidth, mc.MeshHeight, mc.Cores = 4, 4, 16
	mc.LLCBanks = 8
	gs, err := MakeGroups(mc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) == 0 {
		t.Fatal("no groups on a 4x4 mesh")
	}
	if err := ValidateGroups(mc, gs); err != nil {
		t.Fatal(err)
	}
}

// TestReform checks degraded re-packing: dead tiles are never placed, the
// result still validates, and utilization degrades gracefully rather than
// collapsing.
func TestReform(t *testing.T) {
	mc := ManycoreDefault()
	avoid := []int{0, 9, 27} // a V4 scalar-square region plus two strays
	gs, err := Reform(mc, 4, avoid)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) < 10 {
		t.Fatalf("only %d V4 groups reformed around 3 dead tiles", len(gs))
	}
	if err := ValidateGroups(mc, gs); err != nil {
		t.Fatal(err)
	}
	dead := map[int]bool{}
	for _, d := range avoid {
		dead[d] = true
	}
	for _, g := range gs {
		for _, tile := range g.Tiles() {
			if dead[tile] {
				t.Fatalf("group %d placed on dead tile %d", g.ID, tile)
			}
		}
	}
	// V16 squeezed by dead tiles still forms at least one group...
	gs16, err := Reform(mc, 16, avoid)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs16) == 0 {
		t.Fatal("no V16 groups reformed around 3 dead tiles")
	}
	// ...but killing the center 2x2 (every possible 4x4 window contains one
	// of these tiles) leaves no V16 placement: Reform reports zero groups
	// (MIMD fallback), not an error.
	center := []int{27, 28, 35, 36}
	gs16, err = Reform(mc, 16, center)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs16) != 0 {
		t.Fatalf("expected no V16 groups on a diagonal-killed mesh, got %d", len(gs16))
	}
	if _, err := Reform(mc, 4, []int{99}); err == nil {
		t.Fatal("out-of-range avoid tile accepted")
	}
}

func TestNonSquareVlen(t *testing.T) {
	if _, err := MakeGroups(ManycoreDefault(), 6); err == nil {
		t.Fatal("vlen 6 should be rejected")
	}
}

// TestMakeGroupsAllocs holds group construction to its slabs: a MakeGroups
// or Reform call allocates at most 8 times and a ValidateGroups call at most
// twice, for V4 and V16 on the 8x8 fabric (a map per group made it 140-180
// and 21-40).
func TestMakeGroupsAllocs(t *testing.T) {
	mc := ManycoreDefault()
	for _, vlen := range []int{4, 16} {
		var gs []*Group
		var err error
		mk := alloctest.Count(func() { gs, err = MakeGroups(mc, vlen) })
		if err != nil {
			t.Fatal(err)
		}
		re := alloctest.Count(func() { _, err = Reform(mc, vlen, []int{12}) })
		if err != nil {
			t.Fatal(err)
		}
		va := alloctest.Count(func() { err = ValidateGroups(mc, gs) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("V%d: MakeGroups %d, Reform %d, ValidateGroups %d allocations", vlen, mk, re, va)
		if mk > 8 || re > 8 {
			t.Errorf("V%d: MakeGroups allocates %d times and Reform %d, want <= 8 each", vlen, mk, re)
		}
		if va > 2 {
			t.Errorf("V%d: ValidateGroups allocates %d times, want <= 2", vlen, va)
		}
	}
}

// TestValidateCatchesBrokenTrees: Validate refuses a forwarding tree that
// misses a lane, reaches one twice, links non-neighbours or skips a hop.
func TestValidateCatchesBrokenTrees(t *testing.T) {
	mc := ManycoreDefault()
	gs, err := MakeGroups(mc, 16)
	if err != nil {
		t.Fatal(err)
	}
	// broken validates a copy of group 0 after edit.
	broken := func(edit func(g *Group)) error {
		g := *gs[0]
		g.Hop = slices.Clone(g.Hop)
		g.Children = make([][]int, len(gs[0].Children))
		for k, kids := range gs[0].Children {
			g.Children[k] = slices.Clone(kids)
		}
		edit(&g)
		return g.Validate(mc)
	}
	if err := broken(func(*Group) {}); err != nil {
		t.Fatalf("unedited copy: %v", err)
	}
	exp := 1 + gs[0].LaneIndex(gs[0].Expander)
	for _, c := range []struct {
		name, want string
		edit       func(g *Group)
	}{
		{"dropped link", "unreachable", func(g *Group) { g.Children[exp] = g.Children[exp][1:] }},
		{"second parent", "reached twice", func(g *Group) {
			// Link some lane q to a mesh neighbour one hop further that
			// already has another parent.
			for q := 1; q < g.Size(); q++ {
				for c := 1; c < g.Size(); c++ {
					d := g.Tile(q) - g.Tile(c)
					if (d == 1 || d == -1 || d == 8 || d == -8) && g.Hop[c] == g.Hop[q]+1 && !slices.Contains(g.Children[q], g.Tile(c)) {
						g.Children[q] = append(g.Children[q], g.Tile(c))
						return
					}
				}
			}
		}},
		{"far link", "not mesh-adjacent", func(g *Group) { g.Children[exp] = append(g.Children[exp], g.Scalar+20) }},
		{"skipped hop", "hop", func(g *Group) { g.Hop[1+g.LaneIndex(g.Children[exp][0])]++ }},
	} {
		if err := broken(c.edit); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate says %v, want %q", c.name, err, c.want)
		}
	}
}
