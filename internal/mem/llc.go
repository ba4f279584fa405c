package mem

import (
	"fmt"
	"math"

	"rockcress/internal/config"
	"rockcress/internal/isa"
	"rockcress/internal/msg"
	"rockcress/internal/stats"
)

// GroupLanes resolves a vector group's lane index to a tile id. The scalar
// core's memory unit attaches the group id to wide access packets; the LLC
// uses the layout to steer each response word (paper §3.4).
type GroupLanes interface {
	LaneTile(group, lane int) (int, bool)
}

// Sender injects a message into the NoC at the bank's node. TrySend returns
// false when the local injection queue is full; the bank retries next cycle.
type Sender interface {
	TrySend(m msg.Message) bool
}

type llcLine struct {
	valid bool
	dirty bool
	addr  uint32 // full line address (tag)
	data  []uint32
}

type wordWrite struct {
	off int // word offset within the line
	val uint32
}

// mshrEvent is one queued request against a missing line. Events replay in
// arrival order at fill time so a waiting load never observes a store that
// reached the bank after it.
type mshrEvent struct {
	isStore bool
	store   wordWrite
	req     msg.Message
}

type llcMSHR struct {
	busy     bool
	lineAddr uint32
	events   []mshrEvent

	// Causal stamps of this MSHR's line fill (populated only with causal
	// recording on): the DRAM schedule decomposition, copied into every
	// replayed request at Install so responses carry the full journey.
	cDramQ, cDramLat int32
}

// respJob streams one wide access's words out of the bank. The bank owns a
// single response counter, so jobs serialize (paper: "we add a counter to
// each cache, which it uses to serially generate responses").
type respJob struct {
	req    msg.Message
	kStart int      // first global word index this bank serves
	data   []uint32 // snapshot of the served words
	sent   int
	// start is the cycle the job reached the stream head (-1 until then;
	// 0 with causal recording off). Everything between the request's bank
	// arrival and start is queue wait, stamped CLlcQ; bank count scales
	// it, per-access service it does not.
	start int64
}

// LLCBank is one slice of the shared last-level cache. Banks partition the
// address space by line striping and are write-back with tree pseudo-LRU
// replacement.
type LLCBank struct {
	ID   int
	node int

	cfg       config.Manycore
	lineBytes int
	lineWords int
	ways      int
	sets      int

	lines []llcLine // sets*ways
	plru  []uint8   // tree-PLRU state per set

	// reqQ is a fixed-capacity ring (LLCReqQueue entries): the queue bound
	// is architectural, so steady state never reallocates it.
	reqQ     []msg.Message
	reqHead  int
	reqCount int

	mshr []llcMSHR

	// jobs is a growable ring: the hit path is capped at LLCRespJobs, but
	// Install may queue the waiters of a whole MSHR past the cap (bounding
	// only the hit path keeps the bank deadlock-free), so the ring grows on
	// demand and then stays at its high-water capacity.
	jobs     []respJob
	jobHead  int
	jobCount int

	// dataPool recycles respJob word buffers (lineWords capacity each): a
	// popped job's buffer is returned here and reused by the next makeJob,
	// so streaming allocates nothing once warm. Buffers are bank-owned; a
	// job's data is never referenced after its pop.
	dataPool [][]uint32

	out    Sender
	dram   *DRAM
	global *Global
	groups GroupLanes
	st     *stats.LLC

	// causal gates journey stamping for the causal profiler: with it off
	// (the default) responses leave with zero stamps and the bank does no
	// extra work, keeping goldens bit-identical.
	causal bool
	// blocked counts cycles the head response flit failed to inject
	// (response-plane backpressure; causal-only). Accept snapshots it into
	// the request's CInject slot, and stampResp emits the delta as the
	// response's CGated stamp, so every cycle the bank spent gated on the
	// mesh — including time a request waited behind other mesh-gated jobs
	// — books as NoC congestion rather than LLC service.
	blocked int64

	err error
}

// NewLLCBanks builds the configured cache's cfg.LLCBanks banks: bank b sits
// at node space.LLCNode(b) and counts into st[b]. Every per-bank and per-line
// array is carved from one slab per kind, so the cost of building the cache
// does not grow with its line count. The geometry derives from the user's
// configuration, so a bad shape is a validated error, not a panic
// (config.Manycore.Validate normally rejects it first).
func NewLLCBanks(cfg config.Manycore, space msg.NodeSpace, out Sender, dram *DRAM, global *Global, groups GroupLanes, st []stats.LLC) ([]*LLCBank, error) {
	n := cfg.LLCBanks
	perBank := cfg.LLCBytes / n
	ways := cfg.LLCWays
	sets := perBank / (cfg.CacheLineBytes * ways)
	if sets < 1 {
		sets = 1
	}
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("mem: llc sets %d must be a power of two (%d B over %d banks, %d-way, %d B lines)",
			sets, cfg.LLCBytes, n, ways, cfg.CacheLineBytes)
	}
	lineWords, lines := cfg.CacheLineBytes/4, sets*ways
	var (
		slab     = make([]LLCBank, n)
		banks    = make([]*LLCBank, n)
		lineSlab = make([]llcLine, n*lines)
		data     = make([]uint32, n*lines*lineWords)
		plru     = make([]uint8, n*sets)
		mshr     = make([]llcMSHR, n*cfg.LLCMSHRs)
		reqQ     = make([]msg.Message, n*cfg.LLCReqQueue)
		jobs     = make([]respJob, n*cfg.LLCRespJobs)
	)
	for i := range lineSlab {
		lineSlab[i].data = part(data, i, lineWords)
	}
	for id := range banks {
		b := &slab[id]
		*b = LLCBank{
			ID: id, node: space.LLCNode(id), cfg: cfg,
			lineBytes: cfg.CacheLineBytes, lineWords: lineWords,
			ways: ways, sets: sets,
			lines: part(lineSlab, id, lines),
			plru:  part(plru, id, sets),
			mshr:  part(mshr, id, cfg.LLCMSHRs),
			reqQ:  part(reqQ, id, cfg.LLCReqQueue),
			jobs:  part(jobs, id, cfg.LLCRespJobs),
			out:   out, dram: dram, global: global, groups: groups, st: &st[id],
		}
		banks[id] = b
	}
	return banks, nil
}

// part returns the i-th n-element piece of a slab. Its capacity ends where
// the piece does, so an append grows away from the slab instead of into the
// neighbouring piece.
func part[T any](slab []T, i, n int) []T {
	return slab[i*n : (i+1)*n : (i+1)*n]
}

// Err returns the first invariant violation the bank observed, if any.
func (b *LLCBank) Err() error { return b.err }

func (b *LLCBank) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf("llc bank %d: %s", b.ID, fmt.Sprintf(format, args...))
	}
}

// CanAccept reports whether the request queue has room.
func (b *LLCBank) CanAccept() bool { return b.reqCount < len(b.reqQ) }

// Accept enqueues an incoming request (the machine delivers NoC arrivals).
func (b *LLCBank) Accept(m *msg.Message) {
	if !b.CanAccept() {
		b.fail("accept on full request queue")
		return
	}
	if b.causal {
		// Park the bank-blocked snapshot in the request's (unused) CInject
		// slot; stampResp turns the delta into the CGated stamp.
		m.CInject = b.blocked
	}
	b.reqQ[wrap(b.reqHead+b.reqCount, len(b.reqQ))] = *m
	b.reqCount++
}

// wrap maps a ring index in [0, 2n) back into [0, n): a compare instead of
// a division on every enqueue and dequeue.
func wrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}

// popReq consumes the head request.
func (b *LLCBank) popReq() {
	b.reqHead = wrap(b.reqHead+1, len(b.reqQ))
	b.reqCount--
}

// pushJob appends a response job, growing the ring if full (Install may
// burst past the hit-path cap).
func (b *LLCBank) pushJob(j respJob) {
	if b.jobCount == len(b.jobs) {
		grown := make([]respJob, 2*len(b.jobs)+1)
		for i := 0; i < b.jobCount; i++ {
			grown[i] = b.jobs[wrap(b.jobHead+i, len(b.jobs))]
		}
		b.jobs = grown
		b.jobHead = 0
	}
	b.jobs[wrap(b.jobHead+b.jobCount, len(b.jobs))] = j
	b.jobCount++
}

// popJob retires the head job, returning its word buffer to the pool.
func (b *LLCBank) popJob() {
	j := &b.jobs[b.jobHead]
	b.dataPool = append(b.dataPool, j.data[:0])
	j.data = nil
	b.jobHead = wrap(b.jobHead+1, len(b.jobs))
	b.jobCount--
}

// getData takes an n-word buffer from the pool (n never exceeds lineWords).
func (b *LLCBank) getData(n int) []uint32 {
	if last := len(b.dataPool) - 1; last >= 0 {
		d := b.dataPool[last]
		b.dataPool = b.dataPool[:last]
		return d[:n]
	}
	d := make([]uint32, b.lineWords)
	return d[:n]
}

// Busy reports whether the bank has buffered work (quiescence check).
func (b *LLCBank) Busy() bool {
	if b.reqCount > 0 || b.jobCount > 0 {
		return true
	}
	for i := range b.mshr {
		if b.mshr[i].busy {
			return true
		}
	}
	return false
}

func (b *LLCBank) lineAddrOf(addr uint32) uint32 {
	return addr &^ uint32(b.lineBytes-1)
}

func (b *LLCBank) setOf(lineAddr uint32) int {
	lineNum := int(lineAddr) / b.lineBytes
	return (lineNum / b.cfg.LLCBanks) & (b.sets - 1)
}

// lookup returns the way holding lineAddr, or -1.
func (b *LLCBank) lookup(lineAddr uint32) int {
	set := b.setOf(lineAddr)
	for w := 0; w < b.ways; w++ {
		l := &b.lines[set*b.ways+w]
		if l.valid && l.addr == lineAddr {
			return w
		}
	}
	return -1
}

// touch updates tree-PLRU state so way is most-recently used.
func (b *LLCBank) touch(set, way int) {
	bits := b.plru[set]
	node, lo, hi := 0, 0, b.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			bits |= 1 << node // 1 means "recent on left, evict right"
			node = 2*node + 1
			hi = mid
		} else {
			bits &^= 1 << node
			node = 2*node + 2
			lo = mid
		}
	}
	b.plru[set] = bits
}

// victim picks the pseudo-LRU way of a set, preferring invalid ways.
func (b *LLCBank) victim(set int) int {
	for w := 0; w < b.ways; w++ {
		if !b.lines[set*b.ways+w].valid {
			return w
		}
	}
	bits := b.plru[set]
	node, lo, hi := 0, 0, b.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bits&(1<<node) != 0 { // left is recent: evict right
			node = 2*node + 2
			lo = mid
		} else {
			node = 2*node + 1
			hi = mid
		}
	}
	return lo
}

// portion computes the global word-index range [kStart, kEnd) of the
// combined access block that THIS request serves, and the line address it
// reads. For the aligned variants that is the whole block; the unaligned
// Suffix/Prefix pair split a block that straddles a line boundary (§2.3.2).
func (b *LLCBank) portion(m *msg.Message) (lineAddr uint32, kStart, kEnd int, ok bool) {
	if m.Addr%4 != 0 {
		b.fail("unaligned word address %#x", m.Addr)
		return 0, 0, 0, false
	}
	la := b.lineAddrOf(m.Addr)
	skew := int(m.Addr-la) / 4
	total := m.Words
	switch m.Vload.Part {
	case isa.VloadSuffix:
		cut := b.lineWords - skew
		if cut > total {
			cut = total
		}
		return la, 0, cut, true
	case isa.VloadPrefix:
		cut := b.lineWords - skew
		if cut >= total {
			return la + uint32(b.lineBytes), 0, 0, true // nothing to do
		}
		return la + uint32(b.lineBytes), cut, total, true
	default:
		if skew+total > b.lineWords {
			b.fail("aligned %s vload of %d words at %#x crosses a line; use the suffix/prefix pair",
				m.Vload.Dist, total, m.Addr)
			return 0, 0, 0, false
		}
		return la, 0, total, true
	}
}

// destOf resolves global word index k of a block to its destination tile
// and scratchpad byte offset: (Addr+Cnt) -> (BC + Cnt/RPC, BO + Cnt%RPC).
func (b *LLCBank) destOf(m *msg.Message, k int) (tile int, spadOff uint32, ok bool) {
	if m.Vload.Dist == isa.VloadSelf || m.Group < 0 {
		return m.ReqCore, m.SpadOff + uint32(4*k), true
	}
	rpc := m.Vload.Width
	lane := m.Vload.BaseLane + k/rpc
	off := m.SpadOff + uint32(4*(k%rpc))
	tile, found := b.groups.LaneTile(m.Group, lane)
	if !found {
		b.fail("vload lane %d not in group %d", lane, m.Group)
		return 0, 0, false
	}
	return tile, off, true
}

// Tick advances the bank one cycle (sim.Component): process one request,
// and stream response words. DRAM fills reach the bank through Install,
// which the machine calls before the banks tick.
func (b *LLCBank) Tick(now int64) {
	b.processRequest(now)
	b.streamResponses(now)
}

// fetch issues the DRAM line fill for MSHR mi. The DRAM channel serializes
// on occupancy, so the issue order is architecturally visible: banks tick
// in bank order and issue at most one fill each per cycle, so the channel
// sees fills in bank order.
func (b *LLCBank) fetch(now int64, mi int) {
	q, lat := b.dram.Read(now, b.mshr[mi].lineAddr, b.lineBytes, b.ID)
	if b.causal {
		b.mshr[mi].cDramQ, b.mshr[mi].cDramLat = int32(q), int32(lat)
	}
}

// SetCausal switches journey stamping for the causal profiler on or off.
// Recording changes no architectural state and no cycle counts.
func (b *LLCBank) SetCausal(on bool) { b.causal = on }

// Idle reports whether ticking the bank is a no-op: nothing queued and
// nothing streaming. A busy MSHR alone does not make the bank active — it
// is waiting on a DRAM completion, which the machine tracks through the
// DRAM's own event horizon.
func (b *LLCBank) Idle() bool {
	return b.reqCount == 0 && b.jobCount == 0
}

// Park implements sim.Sleeper: an idle bank's tick is a pure no-op (a busy
// MSHR only waits on a DRAM fill, which arrives through Install — a wake
// site). Nothing to replay, so CatchUp is empty.
func (b *LLCBank) Park(now int64) (bool, int64) {
	if !b.Idle() {
		return false, 0
	}
	return true, math.MaxInt64
}

// CatchUp implements sim.Sleeper: an idle bank accrues no bookkeeping.
func (b *LLCBank) CatchUp(n int64) {}

func (b *LLCBank) processRequest(now int64) {
	if b.reqCount == 0 || b.err != nil {
		return
	}
	m := &b.reqQ[b.reqHead]
	switch m.Kind {
	case msg.KindStoreReq:
		if !b.handleStore(now, m) {
			return
		}
	case msg.KindLoadReq, msg.KindVloadReq:
		if !b.handleLoad(now, m) {
			return
		}
	default:
		b.fail("unexpected message kind %s", m.Kind)
		return
	}
	b.popReq()
}

func (b *LLCBank) handleStore(now int64, m *msg.Message) bool {
	lineAddr := b.lineAddrOf(m.Addr)
	if w := b.lookup(lineAddr); w >= 0 {
		set := b.setOf(lineAddr)
		l := &b.lines[set*b.ways+w]
		l.data[(m.Addr-lineAddr)/4] = m.Vals[0]
		l.dirty = true
		b.touch(set, w)
		b.st.Accesses++
		b.st.StoreHits++
		return true
	}
	// Write-allocate: coalesce into an MSHR.
	mi, isNew := b.mshrFor(lineAddr)
	if mi < 0 {
		return false // no MSHR free: head-of-line stall
	}
	b.st.Accesses++
	b.st.StoreMisses++
	if isNew {
		b.st.Misses++
		b.fetch(now, mi)
	}
	b.mshr[mi].events = append(b.mshr[mi].events, mshrEvent{
		isStore: true,
		store:   wordWrite{off: int((m.Addr - lineAddr) / 4), val: m.Vals[0]},
	})
	return true
}

func (b *LLCBank) handleLoad(now int64, m *msg.Message) bool {
	lineAddr, kStart, kEnd, ok := b.portion(m)
	if !ok {
		return true // error already recorded; drop
	}
	if kEnd == kStart {
		return true // empty prefix portion: nothing to serve
	}
	if w := b.lookup(lineAddr); w >= 0 {
		if b.jobCount >= b.cfg.LLCRespJobs {
			return false // response queue full
		}
		set := b.setOf(lineAddr)
		b.touch(set, w)
		b.st.Accesses++
		if m.Kind == msg.KindVloadReq {
			b.st.WideReqs++
		}
		b.pushJob(b.makeJob(m, &b.lines[set*b.ways+w], lineAddr, kStart, kEnd))
		return true
	}
	mi, isNew := b.mshrFor(lineAddr)
	if mi < 0 {
		return false
	}
	b.st.Accesses++
	b.st.Misses++
	if m.Kind == msg.KindVloadReq {
		b.st.WideReqs++
	}
	if isNew {
		b.fetch(now, mi)
	}
	b.mshr[mi].events = append(b.mshr[mi].events, mshrEvent{req: *m})
	return true
}

// mshrFor returns the index of an MSHR tracking lineAddr, allocating one if
// needed. Returns (-1, false) when none is free.
func (b *LLCBank) mshrFor(lineAddr uint32) (int, bool) {
	free := -1
	for i := range b.mshr {
		if b.mshr[i].busy && b.mshr[i].lineAddr == lineAddr {
			return i, false
		}
		if !b.mshr[i].busy && free < 0 {
			free = i
		}
	}
	if free < 0 {
		return -1, false
	}
	// Field-wise reset keeps the events slice's capacity across reuses.
	b.mshr[free].busy = true
	b.mshr[free].lineAddr = lineAddr
	b.mshr[free].events = b.mshr[free].events[:0]
	return free, true
}

func (b *LLCBank) makeJob(m *msg.Message, l *llcLine, lineAddr uint32, kStart, kEnd int) respJob {
	skewBase := b.lineAddrOf(m.Addr)
	var firstWordInLine int
	if lineAddr == skewBase {
		firstWordInLine = int(m.Addr-skewBase)/4 + kStart
	} else {
		firstWordInLine = 0 // prefix: starts at the head of the next line
	}
	n := kEnd - kStart
	data := b.getData(n)
	copy(data, l.data[firstWordInLine:firstWordInLine+n])
	j := respJob{req: *m, kStart: kStart, data: data}
	if b.causal {
		j.start = -1 // set when the job reaches the stream head
	}
	return j
}

// Install receives a completed DRAM fill for this bank: evict a victim,
// install the line, apply coalesced stores, and queue waiting responses.
func (b *LLCBank) Install(now int64, lineAddr uint32) {
	mi := -1
	for i := range b.mshr {
		if b.mshr[i].busy && b.mshr[i].lineAddr == lineAddr {
			mi = i
			break
		}
	}
	if mi < 0 {
		b.fail("fill for %#x with no MSHR", lineAddr)
		return
	}
	set := b.setOf(lineAddr)
	w := b.victim(set)
	l := &b.lines[set*b.ways+w]
	if l.valid && l.dirty {
		b.dram.Write(now, l.addr, l.data, b.ID)
		b.st.Writebacks++
	}
	l.valid = true
	l.dirty = false
	l.addr = lineAddr
	b.global.ReadLine(lineAddr, l.data)
	b.touch(set, w)
	// Replay coalesced requests in arrival order: loads snapshot the line
	// as of their position, so they never observe later stores.
	for _, ev := range b.mshr[mi].events {
		if ev.isStore {
			l.data[ev.store.off] = ev.store.val
			l.dirty = true
			continue
		}
		m := ev.req
		if b.causal {
			m.CDramQ, m.CDramLat = b.mshr[mi].cDramQ, b.mshr[mi].cDramLat
		}
		la, kStart, kEnd, ok := b.portion(&m)
		if !ok || kEnd == kStart {
			continue
		}
		if la != lineAddr {
			b.fail("waiting request line %#x != fill %#x", la, lineAddr)
			continue
		}
		// Fills may exceed the hit-path job cap transiently; bounding only
		// the hit path keeps the bank deadlock-free.
		b.pushJob(b.makeJob(&m, l, lineAddr, kStart, kEnd))
	}
	b.mshr[mi].busy = false
	b.mshr[mi].lineAddr = 0
	b.mshr[mi].events = b.mshr[mi].events[:0]
	b.mshr[mi].cDramQ, b.mshr[mi].cDramLat = 0, 0
}

// streamResponses emits at most one flit per cycle from the head job.
func (b *LLCBank) streamResponses(now int64) {
	if b.jobCount == 0 {
		return
	}
	j := &b.jobs[b.jobHead]
	if j.start < 0 {
		j.start = now
	}
	var resp msg.Message
	n, ok := b.nextFlit(j, &resp)
	if !ok {
		b.popJob()
		return
	}
	if b.causal {
		b.stampResp(&resp, &j.req, now, j.start)
	}
	if !b.out.TrySend(resp) {
		if b.causal {
			b.blocked++
		}
		return
	}
	b.st.RespWords += int64(n)
	j.sent += n
	if j.sent == len(j.data) {
		b.popJob()
	}
}

// nextFlit forms j's next response flit in resp and returns how many of
// j's words it carries: a scalar load's one-word response, or up to
// NetWidthWords consecutive words of a wide access bound for one tile at
// consecutive scratchpad offsets. ok is false when the destination lane
// does not resolve (the error is recorded).
func (b *LLCBank) nextFlit(j *respJob, resp *msg.Message) (n int, ok bool) {
	m := &j.req
	if m.Kind == msg.KindLoadReq {
		*resp = msg.Message{
			Kind: msg.KindLoadResp, Src: b.node, Dst: m.Src,
			Words: 1, LQSlot: m.LQSlot, Addr: m.Addr,
		}
		resp.Vals[0] = j.data[0]
		return 1, true
	}
	k := j.kStart + j.sent
	tile, off, ok := b.destOf(m, k)
	if !ok {
		return 0, false
	}
	// Addr carries the global address of the first bundled word so the
	// receiving scratchpad can record the frame's data provenance (replay).
	*resp = msg.Message{
		Kind: msg.KindSpadWord, Src: b.node, Dst: tile,
		SpadOff: off, Addr: m.Addr + uint32(4*k),
	}
	resp.Vals[0] = j.data[j.sent]
	n = 1
	for n < b.cfg.NetWidthWords && j.sent+n < len(j.data) {
		nt, noff, ok := b.destOf(m, k+n)
		if !ok || nt != tile || noff != off+uint32(4*n) {
			break
		}
		resp.Vals[n] = j.data[j.sent+n]
		n++
	}
	resp.Words = n
	return n, true
}

// stampResp copies the request's causal journey onto a response and adds
// the bank's own decomposition: CInject (egress cycle), CLlcQ (wait from
// bank arrival to service start, net of DRAM time), and CGated (cycles the
// bank spent blocked on response-mesh injection during the request's
// residence — req.CInject parks the Accept-time snapshot of b.blocked).
// Delivery books CGated as NoC congestion, CLlcQ as bank queueing, and the
// residue as LLC service proper — the three scale with different hardware
// knobs (link bandwidth, bank count, neither).
func (b *LLCBank) stampResp(resp *msg.Message, req *msg.Message, now, start int64) {
	gated := b.blocked - req.CInject
	if gated < 0 || gated > now {
		gated = 0
	}
	q := start - req.CIssue - int64(req.CNocReq) - int64(req.CDramQ) - int64(req.CDramLat)
	if q < 0 {
		q = 0
	}
	resp.CIssue = req.CIssue
	resp.CNocReq = req.CNocReq
	resp.CDramQ = req.CDramQ
	resp.CDramLat = req.CDramLat
	resp.CLlcQ = int32(q)
	resp.CGated = int32(gated)
	resp.CInject = now
}

// FlushTo writes every dirty line back to the global store (end of
// simulation, so the harness can validate results).
func (b *LLCBank) FlushTo(g *Global) {
	for i := range b.lines {
		l := &b.lines[i]
		if l.valid && l.dirty {
			g.WriteLine(l.addr, l.data)
			l.dirty = false
		}
	}
}

// OverlayDirty copies every dirty line into im (a Global.Snapshot image)
// without disturbing bank state. The machine uses it to publish a coherent
// checkpoint while the cache keeps running. A line whose page was never
// written back is not in the image yet; the image grows that page.
func (b *LLCBank) OverlayDirty(im *Image) {
	for i := range b.lines {
		l := &b.lines[i]
		if !l.valid || !l.dirty {
			continue
		}
		if !im.overlay(int(l.addr/4), l.data) {
			b.fail("dirty line %#x outside snapshot of %d bytes", l.addr, im.Size())
		}
	}
}
