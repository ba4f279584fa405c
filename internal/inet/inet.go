// Package inet models the instruction forwarding network: a static network
// of direct one-cycle links between neighbouring tiles, separate from the
// data NoC (§3.2). Each vector core owns a single bounded input queue fed
// by its parent in the group's forwarding tree; forwarding an instruction
// is a register write, far cheaper than an I-cache hit.
package inet

import (
	"fmt"

	"rockcress/internal/config"
)

// ItemKind discriminates inet payloads.
type ItemKind uint8

const (
	// ItemInstr is a forwarded instruction for vector cores to execute.
	ItemInstr ItemKind = iota
	// ItemMTStart launches a microthread: the expander starts fetching at PC
	// (sent by the scalar core's vissue).
	ItemMTStart
	// ItemDevec disbands the group: receivers forward it, reset vconfig,
	// and resume normal execution at PC (§2.1).
	ItemDevec
)

func (k ItemKind) String() string {
	switch k {
	case ItemInstr:
		return "instr"
	case ItemMTStart:
		return "mtstart"
	case ItemDevec:
		return "devec"
	}
	return fmt.Sprintf("item(%d)", uint8(k))
}

// Item is one inet payload. A forwarded instruction travels as its PC:
// lanes re-dispatch it through the shared pre-lowered table.
type Item struct {
	Kind ItemKind
	PC   int32
}

type entry struct {
	item    Item
	readyAt int64 // link latency: visible one cycle after the send
}

// Queue is one core's inet input queue: a fixed ring sized at construction,
// so steady-state sends and pops never allocate.
type Queue struct {
	buf        []entry
	head       int
	n          int
	stuckUntil int64 // fault injection: head is frozen before this cycle
	hw         int   // deepest occupancy ever observed (telemetry gauge)
}

// NewQueues builds n queues with the configured capacity (Table 1a: 2),
// their rings carved from one slab. The capacity is configuration input, so
// a bad value is a validated error, not a panic.
func NewQueues(n, capacity int) ([]Queue, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("inet: queue capacity %d must be at least 1", capacity)
	}
	qs := make([]Queue, n)
	slab := make([]entry, n*capacity)
	for i := range qs {
		qs[i].buf = slab[i*capacity : (i+1)*capacity : (i+1)*capacity]
	}
	return qs, nil
}

// Net is a fabric's forwarding network: tile t's input queue In[t], fed by
// its parent in its group's tree, and the queues Out[t] of its children
// there. Both are nil for a tile in no group.
type Net struct {
	In  []*Queue
	Out [][]*Queue
}

// NewNet wires the forwarding tree of every group over a fabric of n
// tiles: one queue per grouped tile, all from one slab, and every tile's
// child list carved from one more.
func NewNet(n int, groups []*config.Group, capacity int) (Net, error) {
	tiles, links := 0, 0
	for _, g := range groups {
		tiles += g.Size()
		for _, ch := range g.Children {
			links += len(ch)
		}
	}
	qs, err := NewQueues(tiles, capacity)
	if err != nil {
		return Net{}, err
	}
	net := Net{In: make([]*Queue, n), Out: make([][]*Queue, n)}
	i := 0
	for _, g := range groups {
		for k := 0; k < g.Size(); k++ {
			net.In[g.Tile(k)] = &qs[i]
			i++
		}
	}
	out := make([]*Queue, 0, links)
	for _, g := range groups {
		for k := 0; k < g.Size(); k++ {
			t, from := g.Tile(k), len(out)
			for _, c := range g.Children[t] {
				out = append(out, net.In[c])
			}
			if len(out) > from {
				net.Out[t] = out[from:len(out):len(out)]
			}
		}
	}
	return net, nil
}

// CanSend reports whether the queue has room for another item.
func (q *Queue) CanSend() bool { return q.n < len(q.buf) }

// Send enqueues an item at cycle now; it becomes visible at now+1.
// The caller must check CanSend first.
func (q *Queue) Send(now int64, it Item) {
	if !q.CanSend() {
		// True invariant: callers gate on CanSend, so a full queue here is a
		// simulator bug, not bad user input.
		panic("internal/inet: invariant: send on full queue")
	}
	// Compare-and-wrap, as the mesh rings do: head+n < 2*len(buf).
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = entry{item: it, readyAt: now + 1}
	q.n++
	if q.n > q.hw {
		q.hw = q.n
	}
}

// HighWater returns the deepest occupancy the queue ever reached.
func (q *Queue) HighWater() int { return q.hw }

// Ready reports whether an item is poppable at cycle now.
func (q *Queue) Ready(now int64) bool {
	return now >= q.stuckUntil && q.n > 0 && q.buf[q.head].readyAt <= now
}

// ReadyAt returns the cycle the head item becomes poppable. ok is false
// when the queue is empty (nothing self-scheduled: readiness then depends
// on a future Send). It feeds the machine's idle fast-forward horizon: a
// core waiting on its inet queue is quiescent exactly until this cycle.
func (q *Queue) ReadyAt() (at int64, ok bool) {
	if q.n == 0 {
		return 0, false
	}
	at = q.buf[q.head].readyAt
	if q.stuckUntil > at {
		at = q.stuckUntil
	}
	return at, true
}

// StickUntil freezes the queue head until the given cycle (fault injection:
// a transient forwarding-fabric hang). Sends still land; nothing pops.
func (q *Queue) StickUntil(until int64) { q.stuckUntil = until }

// Peek returns the head item without consuming it. Check Ready first.
func (q *Queue) Peek() Item { return q.buf[q.head].item }

// Pop consumes the head item. Check Ready first.
func (q *Queue) Pop() Item {
	it := q.buf[q.head].item
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
	}
	q.n--
	return it
}

// Len returns the number of queued items (ready or in flight).
func (q *Queue) Len() int { return q.n }

// Reset drops all queued items (group disband).
func (q *Queue) Reset() { q.head, q.n = 0, 0 }
