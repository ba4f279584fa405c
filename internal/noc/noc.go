// Package noc models the manycore's packet-switched data mesh: XY-routed,
// one flit per link per cycle, bounded per-link input queues with
// backpressure, and LLC banks attached above the top row and below the
// bottom row of each column (§3.1, §5.1).
//
// One route table, keyed by router, input port and destination, holds XY
// routes from cycle 0; the first permanent topology fault rewrites it in
// place (reroute.go). Tick reads the engine's clock; the mesh keeps none.
//
// A flit carries one msg.Message, one 64-byte cache line; wide responses
// bundle up to the network width in words, so the configured width changes
// flit counts rather than flit size (§5.1's "on-chip net width" knob). The
// message is copied once, by TrySend into the flit arena, and stays in its
// slot until the flit leaves the mesh; a hop moves a small ring entry.
package noc

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"rockcress/internal/msg"
)

// port indexes a router's five or six ports.
type port int

const (
	portN port = iota
	portE
	portS
	portW
	portLocal // inject from / eject to the tile's core+scratchpad
	portLLC   // edge routers only: the column's LLC bank
	numPorts
)

// portDead marks a destination unreachable in the route table (the mesh is
// partitioned, or the destination's router is powered off).
const portDead port = -1

// Deliver receives a flit that has reached its destination node. It returns
// false if the destination cannot accept it this cycle (e.g. an LLC request
// queue is full), in which case the flit stays queued and retries. The
// message points into the mesh's flit arena and is valid only for the call;
// receivers copy what they keep.
type Deliver func(node int, m *msg.Message) bool

// LinkVerdict is a fault-injection decision for one flit crossing a link.
type LinkVerdict uint8

const (
	// LinkOK delivers the flit normally.
	LinkOK LinkVerdict = iota
	// LinkDrop loses the flit in transit (no signal reaches the receiver).
	LinkDrop
	// LinkCorrupt damages the flit; the receiver's CRC check rejects it.
	LinkCorrupt
)

// LinkJudge decides the fate of a flit crossing the from->to router link at
// cycle now. nil (the default) means a fault-free network with no per-flit
// overhead.
type LinkJudge func(now int64, from, to int) LinkVerdict

// MaxLinkRetries bounds consecutive retransmissions on one link before the
// link is declared dead (a latched simulation error).
const MaxLinkRetries = 8

// linkState is one directional link's retry-protocol state. The model is
// stop-and-wait: each flit carries a sequence number; a dropped or corrupt
// transfer is NACKed (or times out), the sender holds the flit at its queue
// head, and retransmits after an exponential backoff. Flits are never
// removed from a queue without a successful transfer, so no data is lost —
// only latency.
type linkState struct {
	tries     int   // consecutive failed transfers of the head flit
	holdUntil int64 // backoff: no transfer before this cycle
	seq       uint32
}

// entry is one buffered flit reference: its Message lives in the mesh's
// arena and stays put for the flit's whole mesh lifetime, so a hop moves
// sixteen bytes (port is an int) between rings instead of a full Message.
// dst and out are cached at enqueue: the route table is only rewritten
// with the mesh harvested, so neither changes while the flit is buffered.
type entry struct {
	idx int32 // arena slot holding the Message
	dst int32 // == Message.Dst, cached for routing at the next hop
	out port  // output port at the router buffering this entry
}

// ring is one per-link input queue's header: a fixed-capacity FIFO whose
// entries live in the mesh-wide contiguous bufs array (queue qi owns
// bufs[qi*cap : (qi+1)*cap]). head is an absolute bufs index within that
// window, so the hot headEntry lookup needs no multiply. Keeping headers
// at 8 bytes and entries contiguous puts a whole router's arbitration
// state on a couple of cache lines — the mesh tick is memory-bound, not
// compute-bound.
type ring struct {
	head int32 // absolute bufs index in [qi*cap, (qi+1)*cap)
	n    int32
}

// headEntry returns queue qi's head entry (callers check n > 0).
func (m *Mesh) headEntry(qi int) *entry {
	return &m.bufs[m.queues[qi].head]
}

// pushQ appends e to queue qi (callers check it is not full).
func (m *Mesh) pushQ(qi int, e entry) {
	r := &m.queues[qi]
	i := r.head + r.n
	if end := int32((qi + 1) * m.cap); i >= end {
		i -= int32(m.cap)
	}
	m.bufs[i] = e
	r.n++
}

// dropQ removes queue qi's head entry. Slots are never read outside
// [head, head+n), so the slot is left as-is.
func (m *Mesh) dropQ(qi int) {
	r := &m.queues[qi]
	r.head++
	r.n--
	if int(r.head) == (qi+1)*m.cap {
		r.head = int32(qi * m.cap)
	}
}

// Mesh is the data network.
type Mesh struct {
	w, h    int
	space   msg.NodeSpace
	queues  []ring  // router*numPorts + port
	bufs    []entry // ring entries, queue qi at [qi*cap, (qi+1)*cap)
	rrPtr   []uint8
	occMask []uint8 // per router: bit per port with a non-empty input queue
	// busy mirrors occMask one level up: bit tile&63 of busy[tile>>6] is
	// set iff occMask[tile] != 0, so Tick walks only occupied routers.
	busy    []uint64
	cap     int
	deliver Deliver

	// Flit arena: one Message slot per ring entry mesh-wide, so the free
	// list can never run dry. Slots are allocated by TrySend and freed when
	// their flit leaves the mesh (delivery or harvest).
	flits    []msg.Message
	next     []int32 // free-list links: slot -> next free slot, -1 ends
	freeHead int32   // first free slot, -1 when the arena is full

	routes []int8  // (tile*numPorts+inPort)*nodes + dst -> output port
	nbrTab []int32 // tile*4 + linkPort -> neighbor router (-1 off-mesh)
	nodes  int     // space.Nodes(), routes row stride

	// Permanent-fault topology state (nil until the first topology fault).
	detourTab  []int32 // tile*nodes + dst -> extra hops vs the XY path
	linkDead   []bool  // tile*4 + out: directional link permanently cut
	routerDead []bool  // router powered off
	deadDst    DeadDstHandler

	// moves is Tick's list of winning transfers, sized at New to one per
	// output port (every port moves at most one flit a tick), so it never
	// grows.
	moves  []move
	queued int64 // flits buffered anywhere (O(1) Busy)

	// waker, when set, is called after every successful injection so the
	// engine can wake a parked (empty) mesh.
	waker func()

	// hopLat is the modeled per-hop link latency in cycles (config
	// RouterHopLat). 0 or 1 is the single-cycle default; n > 1 makes Tick
	// move flits only every n-th cycle, stretching every hop (and local
	// delivery) to n cycles. Skipped cycles do not touch router state, so
	// the default is bit-identical to a mesh without the knob.
	hopLat int64

	// Fault-injection hooks (nil/empty in a fault-free mesh).
	judge LinkJudge
	links []linkState // router*4 + out (link ports only)
	err   error

	// Stats.
	Flits       int64 // flits injected
	Hops        int64 // link traversals
	Retransmits int64 // transfers repeated by the link retry protocol
	Dropped     int64 // flits lost in transit (then retransmitted)
	Corrupt     int64 // flits CRC-rejected at the receiver (then retransmitted)

	// Degraded-topology stats (zero on a fault-free mesh).
	RouteRebuilds int64 // fault-aware route-table recomputations
	DetourHops    int64 // extra hops vs the XY path, summed over injections
	DroppedDead   int64 // flits dropped at injection: destination node dead

	linkHops []int64 // per-link traversals (router*4 + out)
}

// move is one transfer Tick applies: router tile's input queue in pops its
// head flit through output out, onto the link to router to, or out of the
// mesh (to -1).
type move struct {
	tile, to int32
	in, out  uint8
}

// New builds a w x h mesh with the given per-link queue capacity. banks is
// the number of LLC nodes (first half above row 0, second half below row
// h-1, one per column).
func New(w, h, banks, queueCap int, deliver Deliver) (*Mesh, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("noc: invalid mesh %dx%d", w, h)
	}
	if queueCap < 1 {
		return nil, fmt.Errorf("noc: link queue capacity %d must be at least 1", queueCap)
	}
	if banks > 2*w {
		return nil, fmt.Errorf("noc: %d banks exceed 2x mesh width %d", banks, w)
	}
	if w*h+banks > msg.MaxNodes {
		return nil, fmt.Errorf("noc: %d nodes exceed a flit's %d node ids", w*h+banks, msg.MaxNodes)
	}
	m := &Mesh{
		w: w, h: h,
		space:    msg.NodeSpace{Cores: w * h, Banks: banks},
		queues:   make([]ring, w*h*int(numPorts)),
		rrPtr:    make([]uint8, w*h*int(numPorts)),
		occMask:  make([]uint8, w*h),
		busy:     make([]uint64, (w*h+63)/64),
		cap:      queueCap,
		deliver:  deliver,
		moves:    make([]move, 0, w*h*int(numPorts)),
		linkHops: make([]int64, w*h*4),
	}
	m.bufs = make([]entry, len(m.queues)*queueCap)
	for qi := range m.queues {
		m.queues[qi].head = int32(qi * queueCap)
	}
	m.nodes = m.space.Nodes()
	m.routes = make([]int8, w*h*int(numPorts)*m.nodes)
	for tile := 0; tile < w*h; tile++ {
		rows := m.routes[tile*int(numPorts)*m.nodes : (tile+1)*int(numPorts)*m.nodes]
		for dst := 0; dst < m.nodes; dst++ {
			rows[dst] = int8(m.route(tile, dst))
		}
		for in := 1; in < int(numPorts); in++ {
			copy(rows[in*m.nodes:], rows[:m.nodes])
		}
	}
	m.nbrTab = make([]int32, w*h*4)
	for tile := 0; tile < w*h; tile++ {
		for out := portN; out <= portW; out++ {
			m.nbrTab[tile*4+int(out)] = -1
			if (out == portN && tile < w) || (out == portS && tile >= (h-1)*w) ||
				(out == portE && tile%w == w-1) || (out == portW && tile%w == 0) {
				continue
			}
			nt, _ := m.neighbor(tile, out)
			m.nbrTab[tile*4+int(out)] = int32(nt)
		}
	}
	total := len(m.queues) * queueCap
	m.flits = make([]msg.Message, total)
	m.next = make([]int32, total)
	for i := range m.next {
		m.next[i] = int32(i) + 1
	}
	m.next[total-1] = -1
	return m, nil
}

// alloc pops a free arena slot. It never runs dry: the arena has one slot
// per ring entry and a slot is only held while its flit occupies one.
func (m *Mesh) alloc() int32 {
	h := m.freeHead
	if h < 0 {
		panic("internal/noc: invariant: flit arena exhausted")
	}
	m.freeHead = m.next[h]
	return h
}

// free returns an arena slot to the head of the free list.
func (m *Mesh) free(i int32) {
	m.next[i] = m.freeHead
	m.freeHead = i
}

// SetLinkJudge installs a fault-injection judge consulted for every link
// traversal. Call before the first Tick; nil leaves the mesh fault-free.
func (m *Mesh) SetLinkJudge(j LinkJudge) {
	m.judge = j
	if j != nil && m.links == nil {
		m.links = make([]linkState, m.w*m.h*4)
	}
}

// Err returns the first latched network error (a link exceeding the
// retransmit bound, or a partitioned mesh), if any.
func (m *Mesh) Err() error { return m.err }

// fail latches the first network error.
func (m *Mesh) fail(format string, args ...any) {
	if m.err == nil {
		m.err = fmt.Errorf("noc: %s", fmt.Sprintf(format, args...))
	}
}

// Space returns the node-id layout.
func (m *Mesh) Space() msg.NodeSpace { return m.space }

func (m *Mesh) qi(tile int, p port) int { return tile*int(numPorts) + int(p) }

// attachTile returns the router a node hangs off, and the port it uses.
func (m *Mesh) attachTile(node int) (tile int, p port) {
	if bank, ok := m.space.IsLLC(node); ok {
		if bank < m.w {
			return bank, portLLC // above top row, column = bank
		}
		return (m.h-1)*m.w + (bank - m.w), portLLC
	}
	return node, portLocal
}

// TrySend injects a flit at src's router: its one copy, into a free arena
// slot. Returns false when the local injection queue is full. f is only
// read; the caller may reuse it.
func (m *Mesh) TrySend(f *msg.Message) bool {
	tile, p := m.attachTile(int(f.Src))
	qi := m.qi(tile, p)
	if int(m.queues[qi].n) == m.cap {
		return false
	}
	out := m.routeAt(tile, p, int(f.Dst))
	if out == portDead {
		// Cold path in its own function: the dead-destination handler may
		// rewrite the message, so it works on a copy, and the caller's
		// message never escapes.
		return m.sendDeadDst(*f, tile, p, qi)
	}
	m.inject(f, tile, p, qi, out)
	return true
}

// sendDeadDst is TrySend for a flit whose destination its route table
// marks unreachable.
func (m *Mesh) sendDeadDst(f msg.Message, tile int, p port, qi int) bool {
	out, accepted := m.resolveDeadDst(&f, tile, p)
	if out == portDead {
		return accepted
	}
	m.inject(&f, tile, p, qi, out)
	return true
}

// inject copies f into a free arena slot and queues it on input queue qi
// of router tile, bound for output out.
func (m *Mesh) inject(f *msg.Message, tile int, p port, qi int, out port) {
	if m.detourTab != nil {
		if d := m.detourTab[tile*m.nodes+int(f.Dst)]; d > 0 {
			m.DetourHops += int64(d)
		}
	}
	idx := m.alloc()
	m.flits[idx] = *f
	m.pushQ(qi, entry{idx: idx, dst: int32(f.Dst), out: out})
	m.occMask[tile] |= 1 << uint(p)
	m.busy[tile>>6] |= 1 << uint(tile&63)
	m.Flits++
	m.queued++
	if m.waker != nil {
		m.waker()
	}
}

// SetWaker installs the engine wake hook fired on every successful
// injection (nil disables it). Call before the first Tick.
func (m *Mesh) SetWaker(fn func()) { m.waker = fn }

// AttachRouter returns the router a node's flits enter and leave the mesh
// at.
func (m *Mesh) AttachRouter(node int) int {
	tile, _ := m.attachTile(node)
	return tile
}

// routeAt looks up the output port a flit that entered router tile on port
// in takes toward node dst.
func (m *Mesh) routeAt(tile int, in port, dst int) port {
	return port(m.routes[(tile*int(numPorts)+int(in))*m.nodes+dst])
}

// route returns the XY output port a flit at router tile takes toward dst
// (X first, then Y, then the local/LLC port): the route table's contents
// until the first topology fault.
func (m *Mesh) route(tile int, dst int) port {
	dtile, dport := m.attachTile(dst)
	c, dc := tile%m.w, dtile%m.w
	switch {
	case c < dc:
		return portE
	case c > dc:
		return portW
	}
	r, dr := tile/m.w, dtile/m.w
	switch {
	case r < dr:
		return portS
	case r > dr:
		return portN
	default:
		return dport
	}
}

// Tick advances the network one cycle (sim.Component): every output link
// moves at most one flit, chosen round-robin among input queues whose head
// routes to it. Moves are computed against pre-tick state, so a flit
// advances at most one hop per cycle. Routers with no buffered flits are
// skipped entirely. now is the engine's cycle: the hop-latency gate and the
// link retry protocol's backoff read it.
func (m *Mesh) Tick(now int64) {
	if m.hopLat > 1 && now%m.hopLat != 0 {
		return
	}
	moves := m.moves[:0]
	for bi, bw := range m.busy {
		for tw := bw; tw != 0; tw &= tw - 1 {
			tile := bi<<6 + bits.TrailingZeros64(tw)
			base := tile * int(numPorts)
			// Each non-empty input nominates its head flit's (cached) output:
			// wantIn[out] collects nominating inputs as a bitmask, outMask the
			// outputs with at least one nomination.
			var wantIn [numPorts]uint8
			outMask := uint8(0)
			for bm := m.occMask[tile]; bm != 0; bm &= bm - 1 {
				in := bits.TrailingZeros8(bm)
				o := m.headEntry(base + in).out
				wantIn[o] |= 1 << uint(in)
				outMask |= 1 << uint(o)
			}
			// Per nominated output (ascending, matching the fault judge's draw
			// order), pick the round-robin-first nominating input: the lowest
			// set bit at or above the RR pointer, wrapping to the lowest overall.
			// A lone nominee wins at any pointer, so the pointer is read only
			// under contention.
			for bm := outMask; bm != 0; bm &= bm - 1 {
				outOff := bits.TrailingZeros8(bm)
				mask := wantIn[outOff]
				in := port(bits.TrailingZeros8(mask))
				if mask&(mask-1) != 0 {
					if low := mask >> m.rrPtr[base+outOff]; low != 0 {
						in = port(int(m.rrPtr[base+outOff]) + bits.TrailingZeros8(low))
					}
				}
				out := port(outOff)
				if out == portLocal || out == portLLC {
					e := m.headEntry(base + int(in))
					if m.deliver(int(e.dst), &m.flits[e.idx]) {
						moves = append(moves, move{tile: int32(tile), to: -1, in: uint8(in), out: uint8(out)})
						m.rrPtr[base+outOff] = rrNext(in)
					}
					continue
				}
				nt := int(m.nbrTab[tile*4+outOff])
				np := oppTab[outOff]
				key := nt*int(numPorts) + int(np)
				// This output is the downstream queue's only feeder and moves
				// at most one flit a tick, so its pre-tick occupancy decides.
				if int(m.queues[key].n) >= m.cap {
					continue // downstream full; nothing crosses this output
				}
				if m.judge != nil && !m.linkClear(now, tile, outOff, nt) {
					// Transfer failed (injected drop/corrupt) or the link is
					// in retransmit backoff: the flit stays at its queue head
					// and the round-robin pointer holds, so the same flit
					// retries first. Nothing crosses this output this cycle.
					continue
				}
				moves = append(moves, move{tile: int32(tile), to: int32(nt), in: uint8(in), out: uint8(out)})
				m.rrPtr[base+outOff] = rrNext(in)
			}
		}
	}
	// Apply: pop winners, push link moves downstream.
	delivered := int64(0)
	for i := range moves {
		mv := &moves[i]
		tile, nt, in, out := int(mv.tile), int(mv.to), port(mv.in), port(mv.out)
		qi := m.qi(tile, in)
		if nt < 0 {
			m.free(m.headEntry(qi).idx)
			delivered++ // left the mesh
		} else {
			np := oppTab[out]
			key := nt*int(numPorts) + int(np)
			e := *m.headEntry(qi)
			// The input port the flit lands on decides, once the table is
			// rerouted, whether it may still climb (see reroute.go).
			e.out = m.routeAt(nt, np, int(e.dst))
			m.pushQ(key, e)
			m.occMask[nt] |= 1 << uint(np)
			m.busy[nt>>6] |= 1 << uint(nt&63)
			m.Hops++
			m.linkHops[tile*4+int(out)]++
		}
		m.dropQ(qi)
		if m.queues[qi].n == 0 {
			m.occMask[tile] &^= 1 << uint(in)
			if m.occMask[tile] == 0 {
				m.busy[tile>>6] &^= 1 << uint(tile&63)
			}
		}
	}
	m.queued -= delivered
	m.moves = moves[:0]
}

// rrNext advances a round-robin pointer past the winning input.
func rrNext(in port) uint8 {
	n := uint8(in) + 1
	if n == uint8(numPorts) {
		n = 0
	}
	return n
}

// linkClear runs the retry protocol for the directional link tile->nt
// (output port outOff) at cycle now. It reports whether the head flit may
// cross now; a false return means the transfer was lost/rejected (stats
// counted, backoff armed) or the link is still backing off.
func (m *Mesh) linkClear(now int64, tile, outOff, nt int) bool {
	ls := &m.links[tile*4+outOff]
	if now < ls.holdUntil {
		return false
	}
	switch m.judge(now, tile, nt) {
	case LinkDrop:
		m.Dropped++
	case LinkCorrupt:
		m.Corrupt++
	default:
		ls.tries = 0
		ls.seq++
		return true
	}
	ls.tries++
	m.Retransmits++
	if ls.tries > MaxLinkRetries {
		m.fail("link %d->%d dead: flit seq %d lost after %d retransmits",
			tile, nt, ls.seq, ls.tries-1)
	}
	backoff := ls.tries
	if backoff > 6 {
		backoff = 6
	}
	ls.holdUntil = now + (int64(1) << uint(backoff))
	return false
}

// SetHopLat sets the modeled per-hop link latency in cycles (config
// RouterHopLat). Call before the first Tick; n <= 1 is the default
// single-cycle hop and changes nothing.
func (m *Mesh) SetHopLat(n int) { m.hopLat = int64(n) }

// LinkHops returns the per-link traversal counters (index router*4+direction
// in N/E/S/W order). They are always kept and never affect routing. The
// slice is live; callers snapshot it between cycles.
func (m *Mesh) LinkHops() []int64 { return m.linkHops }

// LinkLabels names each LinkHops index "from>to" by router id; indexes whose
// direction leaves the mesh get "" (those counters never increment). The
// labels are slices of one string.
func (m *Mesh) LinkLabels() []string {
	widest := len(strconv.Itoa(len(m.nbrTab)/4 - 1))
	buf := make([]byte, 0, len(m.nbrTab)*(2*widest+1))
	ends := make([]int, len(m.nbrTab))
	for i, nt := range m.nbrTab {
		if nt >= 0 {
			buf = strconv.AppendInt(append(strconv.AppendInt(buf, int64(i/4), 10), '>'), int64(nt), 10)
		}
		ends[i] = len(buf)
	}
	all, start := string(buf), 0
	labels := make([]string, len(ends))
	for i, end := range ends {
		labels[i], start = all[start:end], end
	}
	return labels
}

// neighbor returns the router and input port reached by leaving tile via out.
func (m *Mesh) neighbor(tile int, out port) (int, port) {
	switch out {
	case portN:
		return tile - m.w, portS
	case portS:
		return tile + m.w, portN
	case portE:
		return tile + 1, portW
	case portW:
		return tile - 1, portE
	}
	panic(fmt.Sprintf("internal/noc: invariant: neighbor via non-link port %d", out))
}

// oppTab maps a link output port to the input port it feeds on the
// neighboring router (indexed by the N/E/S/W link ports only).
var oppTab = [4]port{portN: portS, portE: portW, portS: portN, portW: portE}

// Busy reports whether any flit is queued anywhere (quiescence check).
// O(1): maintained as a counter rather than a router scan.
func (m *Mesh) Busy() bool { return m.queued > 0 }

// QueuedFlits counts flits currently buffered in the mesh.
func (m *Mesh) QueuedFlits() int { return int(m.queued) }

// Park implements sim.Sleeper: an empty mesh's tick is a no-op. Injections
// wake it via the hook installed with SetWaker.
func (m *Mesh) Park(now int64) (bool, int64) {
	if m.queued > 0 {
		return false, 0
	}
	return true, math.MaxInt64
}

// CatchUp implements sim.Sleeper: the mesh reads the engine's clock, so an
// idle mesh accrues no bookkeeping.
func (m *Mesh) CatchUp(n int64) {}
