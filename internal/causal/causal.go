// Package causal implements the streaming last-blocker dependency recorder
// behind -causal: per-tile resource-class accounting, barrier-interval
// critical-path extraction, per-resource slack, and COZ-style what-if
// projection.
//
// The model is interval-based. A run is partitioned into barrier intervals
// (windows between consecutive global barrier releases, plus a final window
// ending at halt). Within each interval the critical tile is the
// last-arrival tile at the closing barrier — by construction every other
// tile had slack — and the interval's cycles are attributed to the critical
// tile's per-class cycle deltas. Each non-halted core accounts exactly one
// class-cycle per machine cycle, so interval deltas sum to the window
// length up to a non-negative residual (post-halt drain, killed tiles)
// which is booked to ClassBarrier. Summed over all intervals the buckets
// therefore equal end-to-end cycles exactly.
//
// Frame waits are retro-split: while a tile sits in a frame-wait run the
// recorder tracks the journey of the last response that arrived for it
// (NoC request leg, DRAM queue, DRAM latency, LLC service, NoC response
// leg, stamped by the memory system when causal recording is on). When the
// run closes, its tail cycles are re-bucketed backward along that journey —
// last-arrival attribution down the full memory chain — and only the
// residue stays ClassFrame.
//
// Everything here is gated: with recording off no stamp fields are written,
// no counters advance, and fault-free goldens are bit-identical.
package causal

import "rockcress/internal/msg"

// Class is a resource class on the critical path.
type Class uint8

const (
	// ClassScalar is issue/compute on scalar or MIMD tiles (including
	// core-local hazards: branch bubbles count as compute, not waiting).
	ClassScalar Class = iota
	// ClassVector is issue/compute on vector lanes and expanders.
	ClassVector
	// ClassFrame is residual frame/load wait not attributed to a deeper
	// resource by the retro-split (overlap of several outstanding fills,
	// waits whose last blocker predates the run).
	ClassFrame
	// ClassLLC is LLC bank service proper: lookup and response streaming
	// for the access itself (mesh-gated streaming cycles book to
	// ClassNocContend, queueing behind other requests to ClassLLCQ).
	ClassLLC
	// ClassLLCQ is bank queueing: the wait from a request's bank arrival to
	// its service start, behind other requests and jobs. Bank count scales
	// it — twice the banks, half the queue — while per-access service
	// (ClassLLC) is untouched, so only this class rides the "llc" what-if
	// key.
	ClassLLCQ
	// ClassNocReq is request-plane NoC traversal (issue to bank ingress).
	ClassNocReq
	// ClassNocResp is response-plane NoC traversal (bank egress to tile).
	ClassNocResp
	// ClassNocContend is mesh queueing in excess of the minimum-hop
	// traversal on either plane: cycles a flit spent waiting behind other
	// traffic rather than covering distance. It is the congestion share of
	// the NoC legs and scales with both link bandwidth (hop latency) and
	// the number of LLC endpoints the traffic funnels into (bank count),
	// so the "noc" and "llc" what-if keys both cover it.
	ClassNocContend
	// ClassDramQ is DRAM channel queueing and transfer wait.
	ClassDramQ
	// ClassDramLat is DRAM access latency proper.
	ClassDramLat
	// ClassInet is intra-group interconnect stall (lane<->expander).
	ClassInet
	// ClassBackpressure is NoC injection backpressure at the tile.
	ClassBackpressure
	// ClassBarrier is barrier/formation skew: cycles a critical tile spent
	// waiting at a barrier, plus the per-interval residual (drain after the
	// last halter, cycles of killed tiles).
	ClassBarrier
	// ClassRecovery is frame waits while the tile's scratchpad is poisoned
	// or replaying — the replay ladder's rungs.
	ClassRecovery

	// NumClasses is the number of resource classes.
	NumClasses = int(ClassRecovery) + 1
)

var classNames = [NumClasses]string{
	"scalar", "vector", "frame", "llc", "llc_q", "noc_req", "noc_resp",
	"noc_contend", "dram_q", "dram_lat", "inet", "backpressure", "barrier",
	"recovery",
}

// String returns the class's snake_case name as used in report.json.
func (c Class) String() string {
	if int(c) < NumClasses {
		return classNames[c]
	}
	return "unknown"
}

// TileRec is one tile's streaming class accounting, driven by the tile's
// core as it ticks and by the mesh stage's deliveries (Arrive). It is
// preallocated and allocation-free in steady state.
type TileRec struct {
	// Counts is the cumulative class-cycle histogram.
	Counts [NumClasses]int64

	// clock counts accounted cycles. Cores account exactly one class-cycle
	// per machine cycle while alive (ticks plus skip backfill), so clock
	// tracks the machine cycle for live tiles; arrivals are stamped with
	// machine cycles and compare directly against run bounds.
	clock int64

	inRun    bool
	runStart int64
	runClass Class

	// Last-arrival journey: the most recent response delivered to this
	// tile, decomposed into chain components. Overwritten on every arrival
	// — the last writer before a run closes is the last blocker. arrCycle
	// is consumed (zeroed) by a split; lastArr survives it so prevArr is
	// always the true previous delivery, giving the inter-arrival headway
	// that bounds how much of a wait the last blocker's journey can save.
	arrCycle int64
	lastArr  int64
	prevArr  int64
	arrComp  [8]int64 // Journey components in splitOrder (backward) order
}

// Journey is one response's decomposed round trip, as delivered to Arrive:
// request-plane distance and queueing excess, DRAM queue and latency, bank
// queue wait, bank service, bank mesh-gating, and the whole response leg.
type Journey struct {
	ReqDist int64 // request-plane minimum-hop traversal
	ReqCont int64 // request-plane queueing excess over the hop floor
	DramQ   int64 // DRAM channel queue + transfer wait
	DramLat int64 // DRAM access latency
	LLCQ    int64 // bank queue wait (arrival to service start, net of DRAM)
	LLC     int64 // bank service proper (lookup + streaming)
	Gated   int64 // bank cycles gated on response-mesh injection
	Resp    int64 // response-plane leg (distance + destination funnel)
}

// JourneyOf decomposes the round trip of response f, delivered at cycle now,
// from its journey stamps (the C* fields) into request NoC, DRAM queue, DRAM
// latency, bank residence, and response NoC cycles. floor is the request
// leg's minimum-hop traversal (manhattan distance x hop latency). The bank
// residence — the remainder, so clock skew never makes components exceed
// the total — is split into mesh-gating, queue wait, and service via the
// CGated/CLlcQ stamps, and the request leg into floor and the queueing
// excess above it. Floor and service book to traversal/service classes; the
// excesses book to ClassNocContend/ClassLLCQ — the shares bank count and
// link bandwidth actually drive. The response leg stays whole: its
// congestion is the destination-side ejection funnel, which neither knob
// relieves per-endpoint, only link bandwidth — so it rides ClassNocResp. ok
// is false for an unstamped response.
func JourneyOf(f *msg.Message, now, floor int64) (j Journey, ok bool) {
	if f.CIssue == 0 || f.CInject == 0 {
		return Journey{}, false
	}
	resp := now - f.CInject
	bank := now - f.CIssue - int64(f.CNocReq) - int64(f.CDramQ) - int64(f.CDramLat) - resp
	gated := min(max(int64(f.CGated), 0), max(bank, 0))
	llcq := min(max(int64(f.CLlcQ), 0), max(bank-gated, 0))
	reqDist, reqCont := int64(f.CNocReq), int64(0)
	if reqDist > floor {
		reqDist, reqCont = floor, reqDist-floor
	}
	return Journey{
		ReqDist: reqDist, ReqCont: reqCont,
		DramQ: int64(f.CDramQ), DramLat: int64(f.CDramLat),
		LLCQ: llcq, LLC: bank - gated - llcq, Gated: gated, Resp: resp,
	}, true
}

// splitOrder maps arrComp slots to classes, walking backward from the
// arrival: the cycles nearest the wait's end are the response NoC leg,
// then the bank's mesh-gating, service, and queue wait, DRAM latency and
// queueing, and the request leg (queueing excess, then distance).
// ClassNocContend appears twice: both congestion shares pool there.
var splitOrder = [8]Class{
	ClassNocResp, ClassNocContend, ClassLLC, ClassLLCQ, ClassDramLat,
	ClassDramQ, ClassNocContend, ClassNocReq,
}

// Tick accounts one cycle to class.
func (t *TileRec) Tick(class Class) {
	t.add(class, 1)
}

// AddN accounts n cycles to class (idle-skip backfill mirrors through
// here; n <= 0 is a no-op).
func (t *TileRec) AddN(class Class, n int64) {
	if n > 0 {
		t.add(class, n)
	}
}

func (t *TileRec) add(class Class, n int64) {
	if class == ClassFrame || class == ClassRecovery {
		if !t.inRun || t.runClass != class {
			t.closeRun()
			t.inRun = true
			t.runStart = t.clock
			t.runClass = class
		}
	} else {
		t.closeRun()
	}
	t.Counts[class] += n
	t.clock += n
}

// Arrive records the journey of a response delivered to this tile at cycle
// now. Components are clamped non-negative.
func (t *TileRec) Arrive(now int64, j Journey) {
	t.prevArr = t.lastArr
	t.lastArr = now
	t.arrCycle = now
	t.arrComp[0] = clamp0(j.Resp)
	t.arrComp[1] = clamp0(j.Gated)
	t.arrComp[2] = clamp0(j.LLC)
	t.arrComp[3] = clamp0(j.LLCQ)
	t.arrComp[4] = clamp0(j.DramLat)
	t.arrComp[5] = clamp0(j.DramQ)
	t.arrComp[6] = clamp0(j.ReqCont)
	t.arrComp[7] = clamp0(j.ReqDist)
}

// closeRun ends the current frame/recovery run. Frame runs whose last
// arrival landed inside the run are retro-split backward along the
// arrival's journey; recovery runs stay whole (the wait is the ladder, not
// the memory system). Splitting moves cycles between classes and never
// changes their sum, so interval exactness is preserved even when a run
// straddles an interval snapshot.
//
// Latency-hiding gate: the savable latency of the last blocker is bounded
// by its headway over the previous response. If responses were streaming
// in every N cycles, speeding the last one's journey ends the wait at most
// N cycles earlier — behind it the stream was still flowing — so only the
// inter-arrival headway is split along the journey. The rest of the run
// was paced by the stream's throughput — a capacity effect, cycles spent
// behind other traffic in the shared fabric — and books to
// ClassNocContend. A singly-fed wait (the
// common scalar-load case, with no prior response anywhere near) keeps the
// full budget and splits whole.
func (t *TileRec) closeRun() {
	if !t.inRun {
		return
	}
	t.inRun = false
	if t.runClass != ClassFrame {
		return
	}
	if t.arrCycle == 0 || t.arrCycle < t.runStart || t.arrCycle > t.clock {
		return
	}
	if t.prevArr > 0 && t.prevArr < t.arrCycle {
		if head := (t.clock - t.runStart) - (t.arrCycle - t.prevArr); head > 0 {
			t.Counts[ClassFrame] -= head
			t.Counts[ClassNocContend] += head
			t.runStart += head // journey split covers only the headway
		}
	}
	budget := t.clock - t.runStart
	for i, comp := range t.arrComp {
		if budget <= 0 {
			break
		}
		take := comp
		if take > budget {
			take = budget
		}
		if take > 0 {
			t.Counts[ClassFrame] -= take
			t.Counts[splitOrder[i]] += take
			budget -= take
		}
	}
	t.arrCycle = 0 // one arrival splits at most one run
}

func clamp0(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}
