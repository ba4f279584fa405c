package config

import "fmt"

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

	// Children lists each tile's downstream inet targets; Hop is the inet
	// distance from the scalar core (scalar=0, expander=1, then BFS depth).
	Children map[int][]int
	Hop      map[int]int
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
	d := 0
	for _, h := range g.Hop {
		if h > d {
			d = h
		}
	}
	return d
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
		switch m {
		case 2:
			var groups []*Group
			for r0 := 0; r0 < 8; r0 += 2 {
				t := func(r, c int) int { return r*8 + c }
				groups = append(groups,
					buildGroup(len(groups)+0, 8, r0, 0, 2, t(r0, 1), t(r0, 2)),
					buildGroup(len(groups)+1, 8, r0, 3, 2, t(r0, 4), t(r0, 5)),
					buildGroup(len(groups)+2, 8, r0, 6, 2, t(r0+1, 6), t(r0+1, 5)))
			}
			return groups, nil
		case 4:
			t := func(r, c int) int { return r*8 + c }
			return []*Group{
				buildGroup(0, 8, 0, 0, 4, t(3, 0), t(4, 0)),
				buildGroup(1, 8, 0, 4, 4, t(3, 7), t(4, 7)),
				buildGroup(2, 8, 4, 1, 4, t(7, 1), t(7, 0)),
			}, nil
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
	var groups []*Group
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
			g := buildGroup(len(groups), w, r0, c0, m, tile(expR, expC), tile(scR, scC))
			for _, t := range g.Tiles() {
				used[t] = true
			}
			groups = append(groups, g)
		}
	}
	return groups
}

// buildGroup assembles a group's lane list, BFS forwarding tree, and hops.
func buildGroup(id, meshW, r0, c0, m, expander, scalar int) *Group {
	g := &Group{
		ID: id, Scalar: scalar, Expander: expander, Side: m,
		Children: map[int][]int{},
		Hop:      map[int]int{scalar: 0, expander: 1},
	}
	inSquare := func(t int) bool {
		r, c := t/meshW, t%meshW
		return r >= r0 && r < r0+m && c >= c0 && c < c0+m
	}
	for r := r0; r < r0+m; r++ {
		for c := c0; c < c0+m; c++ {
			g.Lanes = append(g.Lanes, r*meshW+c)
		}
	}
	// Scalar feeds the expander; instructions then fan out BFS through the
	// square. Neighbour order N, E, S, W for determinism.
	g.Children[scalar] = []int{expander}
	visited := map[int]bool{expander: true}
	queue := []int{expander}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		r, c := t/meshW, t%meshW
		for _, d := range [4][2]int{{-1, 0}, {0, 1}, {1, 0}, {0, -1}} {
			nr, nc := r+d[0], c+d[1]
			nt := nr*meshW + nc
			if nr < r0 || nr >= r0+m || nc < c0 || nc >= c0+m || !inSquare(nt) || visited[nt] {
				continue
			}
			visited[nt] = true
			g.Children[t] = append(g.Children[t], nt)
			g.Hop[nt] = g.Hop[t] + 1
			queue = append(queue, nt)
		}
	}
	return g
}

// Validate checks group structure: lanes form the tree, hops are
// consistent, and no tile appears twice.
func (g *Group) Validate(mc Manycore) error {
	seen := map[int]bool{}
	for k := 0; k < g.Size(); k++ {
		t := g.Tile(k)
		if t < 0 || t >= mc.Cores {
			return fmt.Errorf("group %d: tile %d out of range", g.ID, t)
		}
		if seen[t] {
			return fmt.Errorf("group %d: tile %d appears twice", g.ID, t)
		}
		seen[t] = true
	}
	if len(g.Lanes) != g.Side*g.Side {
		return fmt.Errorf("group %d: %d lanes for side %d", g.ID, len(g.Lanes), g.Side)
	}
	if g.LaneIndex(g.Expander) < 0 {
		return fmt.Errorf("group %d: expander %d is not a lane", g.ID, g.Expander)
	}
	reached := map[int]bool{}
	stack := []int{g.Expander}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reached[t] {
			return fmt.Errorf("group %d: tile %d reached twice in tree", g.ID, t)
		}
		reached[t] = true
		stack = append(stack, g.Children[t]...)
	}
	for _, l := range g.Lanes {
		if !reached[l] {
			return fmt.Errorf("group %d: lane %d unreachable from expander", g.ID, l)
		}
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
	for from, kids := range g.Children {
		for _, to := range kids {
			if !adj(from, to) {
				return fmt.Errorf("group %d: inet link %d->%d not mesh-adjacent", g.ID, from, to)
			}
		}
	}
	return nil
}

// ValidateGroups checks every group and that groups do not overlap.
func ValidateGroups(mc Manycore, groups []*Group) error {
	used := map[int]int{}
	for _, g := range groups {
		if err := g.Validate(mc); err != nil {
			return err
		}
		for k := 0; k < g.Size(); k++ {
			t := g.Tile(k)
			if owner, ok := used[t]; ok {
				return fmt.Errorf("tile %d in both group %d and group %d", t, owner, g.ID)
			}
			used[t] = g.ID
		}
	}
	return nil
}
