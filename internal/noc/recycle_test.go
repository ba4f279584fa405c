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
// whole.
func TestRecycleParksClearedSlabs(t *testing.T) {
	m, err := New(4, 4, 8, 2, func(int, *msg.Message) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	s := m.meshSlabs
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
	} {
		if !ok {
			t.Errorf("Recycle parked the %s slab uncleared", name)
		}
	}
}
