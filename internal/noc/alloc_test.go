package noc

import (
	"runtime"
	"testing"

	"rockcress/internal/msg"
)

// TestSteadyStateAllocs exercises the inject -> route -> deliver cycle and
// asserts it never touches the heap: Messages live in the mesh's flit
// arena, ring entries in the contiguous buffer block, and the per-tick move
// list in a scratch slice New sizes to one move per output port. Nothing
// grows, so the gate holds from a fresh mesh's first tick.
func TestSteadyStateAllocs(t *testing.T) {
	delivered := 0
	m, err := New(8, 8, 16, 4, func(node int, f *msg.Message) bool {
		delivered++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	send := func(src, dst int) {
		m.TrySend(&msg.Message{Src: msg.Node(src), Dst: msg.Node(dst), Kind: msg.KindLoadResp})
	}
	const ticks = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// Cross traffic in four directions, from the first tick.
	for i := 0; i < ticks; i++ {
		send(0, 63)
		send(63, 0)
		send(9, 54)
		send(54, 9)
		m.Tick(0)
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("mesh ticks allocate: %d allocs over a fresh mesh's first %d ticks", n, ticks)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if delivered == 0 {
		t.Fatal("no flits delivered; the test exercised nothing")
	}
}
