package noc

import (
	"testing"

	"rockcress/internal/msg"
)

// TestSteadyStateAllocs exercises the inject -> route -> deliver cycle and
// asserts it never touches the heap: Messages live in the mesh's flit
// arena, ring entries in the contiguous buffer block, and the per-tick move
// list in a reused scratch slice. A warm-up grows the scratch to its
// steady-state size first; after that, every tick must be allocation-free.
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
		m.TrySend(msg.Message{Src: src, Dst: dst, Kind: msg.KindLoadResp})
	}
	// Cross traffic in several directions sizes the move scratch.
	for i := 0; i < 200; i++ {
		send(0, 63)
		send(63, 0)
		send(9, 54)
		send(54, 9)
		m.Tick(0)
	}
	avg := testing.AllocsPerRun(500, func() {
		send(0, 63)
		send(63, 0)
		m.Tick(0)
	})
	if avg != 0 {
		t.Fatalf("steady-state mesh tick allocates: %.3f allocs/op", avg)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if delivered == 0 {
		t.Fatal("no flits delivered; the test exercised nothing")
	}
}
