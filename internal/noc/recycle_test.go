package noc

import (
	"reflect"
	"testing"

	"rockcress/internal/msg"
)

// fill sets every element of a slab to v.
func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// zeroed reports whether every element of a slab is the zero value.
func zeroed[T any](s []T) bool { return reflect.DeepEqual(s, make([]T, len(s))) }

// TestRecycleParksClearedSlabs: whatever a run left in a mesh's slabs, the
// set Recycle parks is all zero, so the next New of the shape starts where
// a cold one does, and a second Recycle parks nothing. Every slab is
// scribbled first, so a Recycle that skips any one slab's clear fails here,
// including the route and neighbour tables and the free list New rewrites
// whole. A mesh that took a topology fault and harvested parks its reroute
// state and harvest list too, cleared: the next mesh of the shape keeps
// them for its own first fault, but reads as healthy until then.
func TestRecycleParksClearedSlabs(t *testing.T) {
	m, err := New(4, 4, 8, 2, func(int, *msg.Message) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	m.HarvestAll()
	if err := m.CutLink(5, 6); err != nil {
		t.Fatal(err)
	}
	s := m.meshSlabs
	tp := &s.topo
	fill(s.harvest[:cap(s.harvest)], msg.Message{Addr: 8})
	fill(tp.detour, 1)
	fill(tp.linkDead, true)
	fill(tp.routerDead, true)
	fill(tp.level, 2)
	fill(tp.comp, 3)
	fill(tp.bfs[:cap(tp.bfs)], 4)
	fill(tp.attachR, 5)
	fill(tp.attachP, portE)
	fill(tp.dist, 6)
	fill(tp.sq[:cap(tp.sq)], 7)
	fill(s.queues, ring{head: 1, n: 1})
	fill(s.bufs, entry{idx: 1, dst: 2, out: portE})
	fill(s.rrPtr, 1)
	fill(s.occMask, 1)
	fill(s.busy, 1)
	fill(s.flits, msg.Message{Addr: 4})
	fill(s.next, 3)
	fill(s.routes, 2)
	fill(s.nbrTab, 5)
	fill(s.moves[:cap(s.moves)], move{tile: 1, to: 2})
	fill(s.linkHops, 6)
	m.Recycle()
	m.Recycle()
	k := meshShape{4, 4, 8, 2}
	got, ok := meshPool.Get(k)
	if !ok || &got.queues[0] != &s.queues[0] {
		t.Fatal("Recycle parked nothing")
	}
	if again, ok := meshPool.Get(k); ok && &again.queues[0] == &s.queues[0] {
		t.Error("a second Recycle parked the same slabs again")
	}
	for name, ok := range map[string]bool{
		"queue": zeroed(got.queues), "entry": zeroed(got.bufs), "round-robin": zeroed(got.rrPtr),
		"occupancy": zeroed(got.occMask), "busy": zeroed(got.busy), "flit": zeroed(got.flits),
		"free-list": zeroed(got.next), "route": zeroed(got.routes), "neighbour": zeroed(got.nbrTab),
		"move": len(got.moves) == 0 && zeroed(got.moves[:cap(got.moves)]), "link-hop": zeroed(got.linkHops),
		"harvest": len(got.harvest) == 0 && cap(got.harvest) > 0 && zeroed(got.harvest[:cap(got.harvest)]),
		"detour":  zeroed(got.topo.detour), "dead-link": zeroed(got.topo.linkDead),
		"dead-router": zeroed(got.topo.routerDead), "BFS level": zeroed(got.topo.level),
		"component": zeroed(got.topo.comp), "BFS queue": len(got.topo.bfs) == 0 && zeroed(got.topo.bfs[:cap(got.topo.bfs)]),
		"attach router": zeroed(got.topo.attachR), "attach port": zeroed(got.topo.attachP),
		"distance": zeroed(got.topo.dist), "state queue": len(got.topo.sq) == 0 && zeroed(got.topo.sq[:cap(got.topo.sq)]),
	} {
		if !ok {
			t.Errorf("Recycle parked the %s slab uncleared", name)
		}
	}
	if got.topo.linkDead == nil {
		t.Fatal("Recycle dropped the reroute state")
	}
	meshPool.Put(k, got)
	healthy, err := New(4, 4, 8, 2, func(int, *msg.Message) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if &healthy.topo.linkDead[0] != &got.topo.linkDead[0] || healthy.detourTab != nil || healthy.RouterDead(0) {
		t.Error("a mesh on parked reroute state does not read as healthy until its own first fault")
	}
}
