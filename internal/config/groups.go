package config

import (
	"fmt"
	"slices"
)

// Group describes one software-defined vector group: a scalar core plus an
// m x m square of vector lanes. One corner of the square, adjacent to the
// scalar core, is the expander. Instructions forwarded on the inet fan out
// from the expander along a breadth-first spanning tree of the square
// (paper §3.2/Figure 7: each core passes instructions to its neighbours),
// whose depth is 2m-2 — the longest-forwarding-path term in the paper's
// implicit synchronization bound (§4.2).
type Group struct {
	ID       int
	Scalar   int   // tile id of the scalar core
	Expander int   // tile id of the expander (a corner lane)
	Lanes    []int // tile ids in row-major order within the square
	Side     int   // m (the square is Side x Side)

	// Children[k] lists the downstream inet targets (tile ids) of the
	// group's k-th tile in Tile order, and Hop[k] is that tile's inet
	// distance from the scalar core (scalar 0, expander 1, then BFS depth).
	Children [][]int
	Hop      []int
}

// VLen returns the group's vector length (number of lanes).
func (g *Group) VLen() int { return len(g.Lanes) }

// Size returns the number of tiles in the group: the scalar core and its
// lanes.
func (g *Group) Size() int { return 1 + len(g.Lanes) }

// Tile returns the group's i-th tile in Tiles order, for i < Size(); unlike
// Tiles it allocates nothing.
func (g *Group) Tile(i int) int {
	if i == 0 {
		return g.Scalar
	}
	return g.Lanes[i-1]
}

// Tiles returns every tile in the group, scalar first, lanes row-major.
func (g *Group) Tiles() []int {
	out := make([]int, 0, 1+len(g.Lanes))
	out = append(out, g.Scalar)
	return append(out, g.Lanes...)
}

// LaneIndex returns the row-major lane index of tile, or -1.
func (g *Group) LaneIndex(tile int) int {
	for i, t := range g.Lanes {
		if t == tile {
			return i
		}
	}
	return -1
}

// TreeDepth returns the deepest lane's hop count.
func (g *Group) TreeDepth() int {
	return slices.Max(g.Hop)
}

// sideOf returns m for vlen = m*m, or an error for non-square lengths.
func sideOf(vlen int) (int, error) {
	for m := 1; m*m <= vlen; m++ {
		if m*m == vlen {
			return m, nil
		}
	}
	return 0, fmt.Errorf("vector length %d is not a square; groups are m x m lane squares", vlen)
}

// MakeGroups tiles the mesh with as many vector groups of the given length
// as fit (§6.1: "create the maximum number of vector groups that fit within
// 64 cores"), leaving the remaining tiles independent/idle. On the default
// 8x8 mesh this reproduces the paper's utilization: V4 (2x2 lanes + scalar)
// forms 12 groups (60/64 tiles, 94%); V16 (4x4 + scalar) forms 3 groups
// (51/64, 80%).
func MakeGroups(mc Manycore, vlen int) ([]*Group, error) {
	m, err := sideOf(vlen)
	if err != nil {
		return nil, err
	}
	if mc.MeshWidth == 8 && mc.MeshHeight == 8 {
		// Canonical packings for the paper's 64-core fabric: 12 V4 groups
		// (60/64 tiles, 94%) and 3 V16 groups (51/64, 80%), matching §6.2.
		t := func(r, c int) int { return r*8 + c }
		switch m {
		case 2:
			s := newGroupSlabs(12, m)
			for r0 := 0; r0 < 8; r0 += 2 {
				s.add(8, r0, 0, t(r0, 1), t(r0, 2))
				s.add(8, r0, 3, t(r0, 4), t(r0, 5))
				s.add(8, r0, 6, t(r0+1, 6), t(r0+1, 5))
			}
			return s.out, nil
		case 4:
			s := newGroupSlabs(3, m)
			s.add(8, 0, 0, t(3, 0), t(4, 0))
			s.add(8, 0, 4, t(3, 7), t(4, 7))
			s.add(8, 4, 1, t(7, 1), t(7, 0))
			return s.out, nil
		}
	}
	return greedyGroups(mc, m, make([]bool, mc.MeshWidth*mc.MeshHeight)), nil
}

// Reform re-packs vector groups on a degraded fabric, excluding the tiles
// in avoid (dead lanes/scalars/expanders). It always uses the greedy placer
// — the canonical 8x8 packings assume a fully healthy mesh — so reformation
// trades peak utilization for fault tolerance. An empty group list (not an
// error) means no complete group fits; the caller falls back to MIMD on the
// survivors.
func Reform(mc Manycore, vlen int, avoid []int) ([]*Group, error) {
	m, err := sideOf(vlen)
	if err != nil {
		return nil, err
	}
	used := make([]bool, mc.MeshWidth*mc.MeshHeight)
	for _, t := range avoid {
		if t < 0 || t >= len(used) {
			return nil, fmt.Errorf("config: avoid tile %d out of range [0,%d)", t, len(used))
		}
		used[t] = true
	}
	return greedyGroups(mc, m, used), nil
}

// greedyGroups is the placer shared by MakeGroups (non-8x8 meshes) and
// Reform: scan row-major for a free m x m square with a free scalar tile
// adjacent to one of its corners. Tiles pre-marked in used are never touched.
func greedyGroups(mc Manycore, m int, used []bool) []*Group {
	w, h := mc.MeshWidth, mc.MeshHeight
	s := newGroupSlabs(len(used)/(m*m+1), m)
	tile := func(r, c int) int { return r*w + c }
	inBounds := func(r, c int) bool { return r >= 0 && r < h && c >= 0 && c < w }
	squareFree := func(r0, c0 int) bool {
		if r0+m > h || c0+m > w {
			return false
		}
		for r := r0; r < r0+m; r++ {
			for c := c0; c < c0+m; c++ {
				if used[tile(r, c)] {
					return false
				}
			}
		}
		return true
	}
	for r0 := 0; r0 < h; r0++ {
		for c0 := 0; c0 < w; c0++ {
			if !squareFree(r0, c0) {
				continue
			}
			// Pick an expander corner with a free tile next to it for the
			// scalar core. Corner order: TL, TR, BL, BR; neighbour order:
			// E, S, W, N (outside the square only).
			corners := [4][2]int{{r0, c0}, {r0, c0 + m - 1}, {r0 + m - 1, c0}, {r0 + m - 1, c0 + m - 1}}
			found := false
			var expR, expC, scR, scC int
			for _, cr := range corners {
				dirs := [4][2]int{{0, 1}, {1, 0}, {0, -1}, {-1, 0}}
				for _, d := range dirs {
					nr, nc := cr[0]+d[0], cr[1]+d[1]
					if !inBounds(nr, nc) || used[tile(nr, nc)] {
						continue
					}
					if nr >= r0 && nr < r0+m && nc >= c0 && nc < c0+m {
						continue // inside the square
					}
					expR, expC, scR, scC = cr[0], cr[1], nr, nc
					found = true
					break
				}
				if found {
					break
				}
			}
			if !found {
				continue
			}
			g := s.add(w, r0, c0, tile(expR, expC), tile(scR, scC))
			for k := range g.Size() {
				used[g.Tile(k)] = true
			}
		}
	}
	return s.out
}

// groupSlabs carves one call's groups from one slab per kind, for at most
// n groups of side m: each group's lanes, hops and forwarding-tree targets
// share one run of ints, and its child lists one run of slices.
type groupSlabs struct {
	m        int
	groups   []Group
	ints     []int
	children [][]int
	out      []*Group
}

func newGroupSlabs(n, m int) groupSlabs {
	size := m*m + 1
	return groupSlabs{
		m:        m,
		groups:   make([]Group, n),
		ints:     make([]int, n*(3*size-2)),
		children: make([][]int, n*size),
		out:      make([]*Group, 0, n),
	}
}

// add assembles the next group: the m x m square at (r0, c0) of a mesh
// meshW tiles wide, fed by scalar through the corner lane expander, with
// its breadth-first forwarding tree and hops.
func (s *groupSlabs) add(meshW, r0, c0, expander, scalar int) *Group {
	m, i := s.m, len(s.out)
	n := m * m
	ints := s.ints[i*(3*n+1) : (i+1)*(3*n+1)]
	g := &s.groups[i]
	*g = Group{
		ID: i, Scalar: scalar, Expander: expander, Side: m,
		Lanes:    ints[:n:n],
		Hop:      ints[n : 2*n+1 : 2*n+1],
		Children: s.children[i*(n+1) : (i+1)*(n+1) : (i+1)*(n+1)],
	}
	s.out = append(s.out, g)
	// at is a square tile's place in Tile order.
	at := func(t int) int { return 1 + (t/meshW-r0)*m + t%meshW - c0 }
	for r := r0; r < r0+m; r++ {
		for c := c0; c < c0+m; c++ {
			g.Lanes[at(r*meshW+c)-1] = r*meshW + c
		}
	}
	for k := range g.Hop {
		g.Hop[k] = -1 // not reached yet
	}
	g.Hop[0], g.Hop[at(expander)] = 0, 1
	// Scalar feeds the expander; instructions then fan out BFS through the
	// square. Neighbour order N, E, S, W for determinism. The tree's targets
	// in BFS order are the queue, and each tile's children one run of it.
	tree := append(ints[2*n+1:2*n+1:3*n+1], expander)
	g.Children[0] = tree[:1:1]
	for head := 0; head < len(tree); head++ {
		t, from := tree[head], len(tree)
		r, c := t/meshW, t%meshW
		for _, d := range [4][2]int{{-1, 0}, {0, 1}, {1, 0}, {0, -1}} {
			nr, nc := r+d[0], c+d[1]
			if nr < r0 || nr >= r0+m || nc < c0 || nc >= c0+m || g.Hop[at(nr*meshW+nc)] >= 0 {
				continue
			}
			g.Hop[at(nr*meshW+nc)] = g.Hop[at(t)] + 1
			tree = append(tree, nr*meshW+nc)
		}
		if len(tree) > from {
			g.Children[at(t)] = tree[from:len(tree):len(tree)]
		}
	}
	return g
}

// Validate checks group structure: lanes form the tree, hops are
// consistent, and no tile appears twice.
func (g *Group) Validate(mc Manycore) error {
	scratch := make([]int, 2*mc.Cores)
	return g.validate(mc, scratch[:mc.Cores], scratch[mc.Cores:])
}

// validate is Validate over two scratch arrays of mc.Cores words: place[t]
// is 1 + tile t's place in Tile order, and parents[k] counts the lane links
// into place k. Every link joins mesh neighbours. Below the expander each
// lane has exactly one parent lane, one hop nearer the scalar core, so a
// lane's parents lead back to the expander: the expander reaches every lane
// exactly once.
func (g *Group) validate(mc Manycore, place, parents []int) error {
	clear(place)
	clear(parents)
	for k := range g.Size() {
		t := g.Tile(k)
		if t < 0 || t >= mc.Cores {
			return fmt.Errorf("group %d: tile %d out of range", g.ID, t)
		}
		if place[t] != 0 {
			return fmt.Errorf("group %d: tile %d appears twice", g.ID, t)
		}
		place[t] = k + 1
	}
	if len(g.Lanes) != g.Side*g.Side {
		return fmt.Errorf("group %d: %d lanes for side %d", g.ID, len(g.Lanes), g.Side)
	}
	if g.LaneIndex(g.Expander) < 0 {
		return fmt.Errorf("group %d: expander %d is not a lane", g.ID, g.Expander)
	}
	if len(g.Children) != g.Size() || len(g.Hop) != g.Size() {
		return fmt.Errorf("group %d: %d child lists and %d hops for %d tiles", g.ID, len(g.Children), len(g.Hop), g.Size())
	}
	adj := func(a, b int) bool {
		ar, ac := a/mc.MeshWidth, a%mc.MeshWidth
		br, bc := b/mc.MeshWidth, b%mc.MeshWidth
		dr, dc := ar-br, ac-bc
		if dr < 0 {
			dr = -dr
		}
		if dc < 0 {
			dc = -dc
		}
		return dr+dc == 1
	}
	for k, kids := range g.Children {
		from := g.Tile(k)
		for _, to := range kids {
			if !adj(from, to) {
				return fmt.Errorf("group %d: inet link %d->%d not mesh-adjacent", g.ID, from, to)
			}
			if k == 0 {
				continue // the scalar core feeds the expander
			}
			j := -1
			if to >= 0 && to < mc.Cores {
				j = place[to] - 1
			}
			if j < 1 || to == g.Expander || parents[j] > 0 {
				return fmt.Errorf("group %d: tile %d reached twice in tree", g.ID, to)
			}
			parents[j]++
			if g.Hop[j] != g.Hop[k]+1 {
				return fmt.Errorf("group %d: inet link %d->%d goes from hop %d to hop %d", g.ID, from, to, g.Hop[k], g.Hop[j])
			}
		}
	}
	for k, l := range g.Lanes {
		if parents[k+1] == 0 && l != g.Expander {
			return fmt.Errorf("group %d: lane %d unreachable from expander", g.ID, l)
		}
	}
	return nil
}

// ValidateGroups checks every group and that groups do not overlap.
func ValidateGroups(mc Manycore, groups []*Group) error {
	if len(groups) == 0 {
		return nil
	}
	scratch := make([]int, 3*mc.Cores)
	place, parents, owner := scratch[:mc.Cores], scratch[mc.Cores:2*mc.Cores], scratch[2*mc.Cores:]
	for _, g := range groups {
		if err := g.validate(mc, place, parents); err != nil {
			return err
		}
		for k := range g.Size() {
			t := g.Tile(k)
			if owner[t] != 0 {
				return fmt.Errorf("tile %d in both group %d and group %d", t, owner[t]-1, g.ID)
			}
			owner[t] = g.ID + 1
		}
	}
	return nil
}
