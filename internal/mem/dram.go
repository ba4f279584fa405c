package mem

import (
	"fmt"
	"math"

	"rockcress/internal/pool"
)

// DRAM models the paper's fixed-latency, fixed-bandwidth main memory: one
// shared channel whose bandwidth is a hard cap (16 GB/s = 16 B/cycle at
// 1 GHz by default). Requests serialize on channel occupancy; each transfer
// additionally pays the fixed access latency.
type DRAM struct {
	latency     int64
	bytesPerCyc int64
	banks       int // what sizes the queues
	channelFree int64
	// nextDone is the earliest doneAt in inFlight (math.MaxInt64 when it
	// is empty): Completed returns at once before it, and NextDoneAt
	// reads it.
	nextDone int64
	dramSlabs

	// Degradation window (a dramdegrade fault): accesses scheduled in
	// [degradeFrom, degradeUntil) pay latency scaled by degradeFactor.
	// degradeUntil 0 with a factor set means the degradation is permanent.
	degradeFrom   int64
	degradeUntil  int64
	degradeFactor float64

	// Stats.
	Reads, Writes int64
	BusyCycles    int64
	DegradedOps   int64 // accesses scheduled at degraded latency
}

type dramOp struct {
	doneAt   int64
	lineAddr uint32
	bank     int
	write    bool
	data     []uint32 // writeback payload
}

// dramSlabs is a channel's queues, what Recycle parks. inFlight holds the
// scheduled ops; done collects the ops one Completed call retires, fills
// backs its return value, and dataPool keeps writeback payload buffers for
// reuse. Each starts with room for a line fill and a writeback per bank and
// grows only past that depth; a parked set keeps what it grew, so the next
// channel of the shape starts at the last one's high-water depth.
type dramSlabs struct {
	inFlight []dramOp
	done     []dramOp
	fills    []Fill
	dataPool [][]uint32
}

// dramPool parks recycled queue sets by bank count.
var dramPool pool.Pool[int, dramSlabs]

// NewDRAM builds a channel with the given access latency (cycles) and
// bandwidth (bytes per cycle), serving banks LLC banks. Its queues come
// from a recycled channel of the same bank count, or start with room for a
// line fill and a writeback per bank, carved from one slab per kind. The
// parameters come from the user's configuration, so bad values are
// validated errors, not panics.
func NewDRAM(latency, bytesPerCycle, banks int) (*DRAM, error) {
	if latency < 0 || bytesPerCycle <= 0 || banks < 0 {
		return nil, fmt.Errorf("mem: invalid DRAM parameters (latency %d, bandwidth %d B/cycle, %d banks)",
			latency, bytesPerCycle, banks)
	}
	s, ok := dramPool.Get(banks)
	if !ok {
		ops := make([]dramOp, 4*banks)
		s = dramSlabs{
			inFlight: part(ops, 0, 2*banks)[:0],
			done:     part(ops, 1, 2*banks)[:0],
			fills:    make([]Fill, 0, banks),
		}
	}
	return &DRAM{
		latency: int64(latency), bytesPerCyc: int64(bytesPerCycle),
		nextDone: math.MaxInt64, banks: banks, dramSlabs: s,
	}, nil
}

// Recycle clears the channel's queues and parks them, with every writeback
// buffer, for the next NewDRAM of the same bank count. Nothing may use the
// channel afterwards; a second call does nothing.
func (d *DRAM) Recycle() {
	s := d.dramSlabs
	if s.fills == nil {
		return
	}
	for i := range s.inFlight {
		if buf := s.inFlight[i].data; buf != nil {
			s.dataPool = append(s.dataPool, buf)
		}
	}
	for _, buf := range s.dataPool {
		clear(buf[:cap(buf)])
	}
	clear(s.inFlight[:cap(s.inFlight)])
	clear(s.done[:cap(s.done)])
	clear(s.fills[:cap(s.fills)])
	s.inFlight, s.done, s.fills = s.inFlight[:0], s.done[:0], s.fills[:0]
	dramPool.Put(d.banks, s)
	d.dramSlabs = dramSlabs{}
}

// schedule books a transfer and returns its completion time plus the
// decomposition the causal profiler attributes: queue is channel-occupancy
// wait and transfer serialization (everything bandwidth-shaped), lat the
// (possibly degraded) access latency.
func (d *DRAM) schedule(now int64, bytes int) (doneAt, queue, lat int64) {
	start := now
	if d.channelFree > start {
		start = d.channelFree
	}
	transfer := (int64(bytes) + d.bytesPerCyc - 1) / d.bytesPerCyc
	d.channelFree = start + transfer
	d.BusyCycles += transfer
	latency := d.latency
	if d.degradeFactor > 1 && now >= d.degradeFrom &&
		(d.degradeUntil == 0 || now < d.degradeUntil) {
		latency = int64(float64(latency) * d.degradeFactor)
		d.DegradedOps++
	}
	return start + latency + transfer, start - now + transfer, latency
}

// Degrade arms a latency-degradation window (the dramdegrade fault):
// accesses scheduled in [from, until) pay factor times the configured
// latency; until 0 makes it permanent. A later call replaces the window —
// the model is one sick channel, not a stack of afflictions.
func (d *DRAM) Degrade(from, until int64, factor float64) {
	d.degradeFrom, d.degradeUntil, d.degradeFactor = from, until, factor
}

// Read schedules a line fill for bank; the completion surfaces from
// Completed once the channel and latency allow. The return values
// decompose the fill's lifetime for the causal profiler — queue cycles
// (channel wait + transfer) and latency cycles — and may be ignored.
func (d *DRAM) Read(now int64, lineAddr uint32, lineBytes, bank int) (queue, lat int64) {
	done, queue, lat := d.schedule(now, lineBytes)
	d.Reads++
	d.inFlight = append(d.inFlight, dramOp{doneAt: done, lineAddr: lineAddr, bank: bank})
	d.nextDone = min(d.nextDone, done)
	return queue, lat
}

// Write schedules a dirty-line writeback. The data lands in the backing
// store when the transfer completes.
func (d *DRAM) Write(now int64, lineAddr uint32, data []uint32, bank int) {
	done, _, _ := d.schedule(now, len(data)*4)
	d.Writes++
	var cp []uint32
	if n := len(d.dataPool); n > 0 {
		cp = d.dataPool[n-1][:0]
		d.dataPool[n-1] = nil
		d.dataPool = d.dataPool[:n-1]
	}
	cp = append(cp, data...)
	d.inFlight = append(d.inFlight, dramOp{doneAt: done, lineAddr: lineAddr, bank: bank, write: true, data: cp})
	d.nextDone = min(d.nextDone, done)
}

// Fill is a completed line read.
type Fill struct {
	LineAddr uint32
	Bank     int
}

// Completed drains operations that finish at or before now. Write
// completions are applied to g; read completions are returned so the owning
// bank can install the line. Results are ordered by completion time then
// address for determinism. The returned slice is owned by the DRAM and
// valid only until the next call.
func (d *DRAM) Completed(now int64, g *Global) []Fill {
	if now < d.nextDone {
		return d.fills[:0]
	}
	done := d.done[:0]
	rest := d.inFlight[:0]
	d.nextDone = math.MaxInt64
	for _, op := range d.inFlight {
		if op.doneAt <= now {
			done = append(done, op)
		} else {
			rest = append(rest, op)
			d.nextDone = min(d.nextDone, op.doneAt)
		}
	}
	// Scrub the tail so retired writeback payloads don't linger in the
	// inFlight backing array (done aliases its head region only transiently).
	for i := len(rest); i < len(d.inFlight); i++ {
		d.inFlight[i].data = nil
	}
	d.inFlight = rest
	d.done = done[:0]
	// Insertion sort: completion batches are tiny and nearly ordered, and
	// unlike sort.Slice this never allocates.
	for i := 1; i < len(done); i++ {
		op := done[i]
		j := i - 1
		for j >= 0 && (done[j].doneAt > op.doneAt ||
			(done[j].doneAt == op.doneAt && done[j].lineAddr > op.lineAddr)) {
			done[j+1] = done[j]
			j--
		}
		done[j+1] = op
	}
	fills := d.fills[:0]
	for i := range done {
		op := &done[i]
		if op.write {
			g.WriteLine(op.lineAddr, op.data)
			d.dataPool = append(d.dataPool, op.data)
			op.data = nil
		} else {
			fills = append(fills, Fill{LineAddr: op.lineAddr, Bank: op.bank})
		}
	}
	d.fills = fills
	return fills
}

// Pending reports the number of in-flight operations (used by the machine's
// quiescence check).
func (d *DRAM) Pending() int { return len(d.inFlight) }

// NextDoneAt returns the earliest completion time of any in-flight
// operation, or math.MaxInt64 when the channel is empty. It feeds the
// machine's idle fast-forward event horizon.
func (d *DRAM) NextDoneAt() int64 { return d.nextDone }
