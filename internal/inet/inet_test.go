package inet

import "testing"

// newQueue builds a lone queue of the given capacity.
func newQueue(capacity int) *Queue {
	qs, _ := NewQueues(1, capacity)
	return &qs[0]
}

func TestQueueLinkLatency(t *testing.T) {
	q := newQueue(2)
	q.Send(10, Item{Kind: ItemMTStart, PC: 7})
	if q.Ready(10) {
		t.Fatal("item visible in the send cycle (links take one cycle)")
	}
	if !q.Ready(11) {
		t.Fatal("item not visible after one cycle")
	}
	it := q.Pop()
	if it.Kind != ItemMTStart || it.PC != 7 {
		t.Fatalf("wrong item: %+v", it)
	}
}

func TestQueueCapacity(t *testing.T) {
	q := newQueue(2)
	q.Send(0, Item{Kind: ItemInstr})
	q.Send(0, Item{Kind: ItemInstr})
	if q.CanSend() {
		t.Fatal("queue over capacity")
	}
	if !q.Ready(1) {
		t.Fatal("head not ready")
	}
	q.Pop()
	if !q.CanSend() {
		t.Fatal("pop did not free a slot")
	}
}

func TestQueueFIFO(t *testing.T) {
	q := newQueue(4)
	for i := int32(0); i < 4; i++ {
		q.Send(int64(i), Item{Kind: ItemInstr, PC: i})
	}
	for i := int32(0); i < 4; i++ {
		if !q.Ready(100) {
			t.Fatal("queue ran dry")
		}
		if got := q.Pop().PC; got != i {
			t.Fatalf("pop %d, want %d", got, i)
		}
	}
}

func TestQueueStick(t *testing.T) {
	q := newQueue(2)
	q.Send(0, Item{Kind: ItemInstr})
	q.StickUntil(50)
	if q.Ready(10) {
		t.Fatal("stuck queue reported ready")
	}
	if !q.CanSend() {
		t.Fatal("stuck queue refused a send")
	}
	q.Send(10, Item{Kind: ItemInstr})
	if q.Ready(49) {
		t.Fatal("queue unfroze early")
	}
	if !q.Ready(50) {
		t.Fatal("queue still stuck after the freeze window")
	}
	q.Pop()
	if !q.Ready(50) {
		t.Fatal("second item not poppable after unfreeze")
	}
}

func TestQueueReset(t *testing.T) {
	q := newQueue(2)
	q.Send(0, Item{Kind: ItemDevec})
	q.Reset()
	if q.Len() != 0 || q.Ready(10) {
		t.Fatal("reset left items behind")
	}
}
