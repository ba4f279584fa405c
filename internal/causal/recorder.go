package causal

// MaxIntervals bounds the interval ring. Runs with more barrier intervals
// collapse the oldest ones into a cumulative spill bucket so totals stay
// exact; the profile is then flagged truncated (top-chain detail is lost
// for the spilled prefix, buckets and projections are unaffected).
const MaxIntervals = 16384

// Interval is one barrier window attributed to its critical tile.
type Interval struct {
	// End is the machine cycle the window closed at (barrier release or
	// final halt settle).
	End int64
	// Window is the cycle length of the interval; intervals tile the run,
	// so windows sum to end-to-end cycles.
	Window int64
	// Tile is the critical (last-arrival) tile.
	Tile int
	// Arrive is the cycle the critical tile arrived at the barrier
	// (0 when the window closed without a tracked arrival).
	Arrive int64
	// Gap is the critical tile's lead over the runner-up arrival — the
	// headroom before the critical path switches tiles (0 on ties or when
	// unknown).
	Gap int64
	// Delta is the critical tile's per-class cycle delta over the window,
	// with the non-negative residual (window minus accounted cycles)
	// booked to ClassBarrier; it sums to Window exactly.
	Delta [NumClasses]int64
}

// Recorder collects per-tile class accounting and closes barrier intervals.
// Cores drive their TileRec and the arrival/halt trackers as they tick; the
// machine closes intervals from its stage hooks, all on the goroutine
// running the machine.
type Recorder struct {
	tiles    []TileRec
	journeys Journeys
	prev     [][NumClasses]int64
	feeder   []int32

	arrCycle int64
	arrTile  int
	runnerUp int64
	haltSet  bool
	haltCyc  int64
	haltTile int

	windowStart int64
	intervals   []Interval
	spill       [NumClasses]int64
	spilled     int
	finished    bool
	endCycle    int64
}

// NewRecorder returns a recorder for tiles tiles with everything
// preallocated; steady-state recording does not allocate.
func NewRecorder(tiles int) *Recorder {
	r := &Recorder{
		tiles:     make([]TileRec, tiles),
		journeys:  newJourneys(),
		prev:      make([][NumClasses]int64, tiles),
		feeder:    make([]int32, tiles),
		intervals: make([]Interval, 0, 256),
		arrCycle:  -1,
		runnerUp:  -1,
	}
	for t := range r.feeder {
		r.feeder[t] = -1
	}
	return r
}

// SetFeeder declares that tile's instruction stream is produced by feeder:
// vector lanes feed from their group's expander, the expander from its
// scalar core. A tile stalled on the intra-group interconnect is really
// waiting on its feeder, so at interval close the critical tile's inet
// cycles are redistributed along the feeder chain (see resolvedDelta).
func (r *Recorder) SetFeeder(tile, feeder int) {
	if tile >= 0 && tile < len(r.feeder) && feeder != tile {
		r.feeder[tile] = int32(feeder)
	}
}

// Tile returns tile t's per-tile recorder for the core to drive directly.
func (r *Recorder) Tile(t int) *TileRec { return &r.tiles[t] }

// Journeys returns the slab of in-flight journeys' stamps, which the
// machine and the LLC banks write and deliveries read.
func (r *Recorder) Journeys() *Journeys { return &r.journeys }

// Arrival records a barrier arrival. Last arrival wins; ties break to the
// lower tile, so the critical tile does not depend on which core ticked
// first.
func (r *Recorder) Arrival(now int64, tile int) {
	switch {
	case now > r.arrCycle:
		r.runnerUp = r.arrCycle
		r.arrCycle = now
		r.arrTile = tile
	case now == r.arrCycle:
		r.runnerUp = now
		if tile < r.arrTile {
			r.arrTile = tile
		}
	case now > r.runnerUp:
		r.runnerUp = now
	}
}

// Halt records a core halting; the last halter closes the final interval.
// Same determinism rule as Arrival.
func (r *Recorder) Halt(now int64, tile int) {
	if !r.haltSet || now > r.haltCyc || (now == r.haltCyc && tile < r.haltTile) {
		r.haltSet = true
		r.haltCyc = now
		r.haltTile = tile
	}
}

// CloseInterval closes the window ending at the barrier released at cycle
// now. Call from the serial pre-cores hook after engine stall accounting
// has been settled for the current cycle.
func (r *Recorder) CloseInterval(now int64) {
	tile, arrive, gap := r.takeArrival()
	r.close(now, tile, arrive, gap)
}

// Finish closes the last window at the final cycle (after the last halt
// has drained) and freezes the recorder. Safe to call once.
func (r *Recorder) Finish(now int64) {
	if r.finished {
		return
	}
	tile, cyc := r.haltTile, r.haltCyc
	if !r.haltSet {
		tile, cyc, _ = r.takeArrival()
	}
	r.close(now, tile, cyc, 0)
	r.finished = true
	r.endCycle = now
}

func (r *Recorder) takeArrival() (tile int, arrive, gap int64) {
	tile, arrive = r.arrTile, r.arrCycle
	if arrive >= 0 && r.runnerUp >= 0 {
		gap = arrive - r.runnerUp
	}
	if arrive < 0 {
		tile, arrive = 0, 0
	}
	r.arrCycle, r.runnerUp, r.arrTile = -1, -1, 0
	return tile, arrive, gap
}

func (r *Recorder) close(now int64, tile int, arrive, gap int64) {
	window := now - r.windowStart
	if window <= 0 {
		return
	}
	iv := Interval{End: now, Window: window, Tile: tile, Arrive: arrive, Gap: gap}
	iv.Delta = r.resolvedDelta(tile, feederDepth)
	var sum int64
	for c := 0; c < NumClasses; c++ {
		sum += iv.Delta[c]
	}
	// A live tile accounts at most one class-cycle per cycle, so the
	// residual is non-negative; it is the window's unattributed drain
	// (post-halt settle, early-halted or killed critical tiles) and books
	// to barrier skew. This forces Delta to sum to Window exactly, which
	// is what makes run-total buckets equal end-to-end cycles.
	if res := window - sum; res > 0 {
		iv.Delta[ClassBarrier] += res
	} else if res < 0 {
		// Defensive: should be unreachable; keep totals exact regardless.
		iv.Delta[ClassBarrier] += res
	}
	for t := range r.tiles {
		r.prev[t] = r.tiles[t].Counts
	}
	r.windowStart = now
	if len(r.intervals) == MaxIntervals {
		old := r.intervals[0]
		for c := 0; c < NumClasses; c++ {
			r.spill[c] += old.Delta[c]
		}
		r.spilled++
		copy(r.intervals, r.intervals[1:])
		r.intervals = r.intervals[:MaxIntervals-1]
	}
	r.intervals = append(r.intervals, iv)
}

// feederDepth bounds the feeder-chain walk: lane -> expander -> scalar is
// the longest pipeline the topology builds.
const feederDepth = 3

// resolvedDelta returns tile's per-class cycle delta over the current
// interval with inet (feeder-wait) cycles pushed up the feeder chain: a
// cycle a lane spends waiting for its instruction stream is caused by
// whatever its feeder was doing, so those cycles are redistributed in
// proportion to the feeder's own (recursively resolved) interval profile.
// This is the cross-tile last-blocker hop that lets a critical lane's
// profile expose the expander's frame waits — and through the retro-split,
// the NoC/LLC/DRAM legs underneath them. Redistribution is proportional
// over the interval aggregate (the per-cycle pairing is lost to pipeline
// skew) and conserves the delta sum exactly, so interval exactness and the
// buckets==cycles invariant are untouched.
func (r *Recorder) resolvedDelta(tile, depth int) [NumClasses]int64 {
	var d [NumClasses]int64
	for c := 0; c < NumClasses; c++ {
		d[c] = r.tiles[tile].Counts[c] - r.prev[tile][c]
	}
	inet := d[ClassInet]
	if inet <= 0 || depth <= 0 {
		return d
	}
	f := int(r.feeder[tile])
	if f < 0 {
		return d
	}
	fd := r.resolvedDelta(f, depth-1)
	// Distribution base: the feeder's stall classes. The consumer waits on
	// its instruction stream exactly when the feeder is not delivering, so
	// the wait mirrors the feeder's stalls, amplified by pipeline skew —
	// weight by the stall mix, not the whole window. Compute cycles are
	// excluded (while the feeder issues, the stream flows); inet and
	// backpressure are chain-internal transport; barrier means the feeder
	// was already done. If the feeder never stalled on a real resource the
	// wait is issue-rate serialization and falls back to the feeder's full
	// profile (mostly compute).
	fd[ClassInet] = 0
	fd[ClassBackpressure] = 0
	base := fd
	base[ClassScalar] = 0
	base[ClassVector] = 0
	base[ClassBarrier] = 0
	var total int64
	for c := 0; c < NumClasses; c++ {
		total += base[c]
	}
	if total <= 0 {
		base = fd
		for c := 0; c < NumClasses; c++ {
			total += base[c]
		}
		if total <= 0 {
			return d
		}
	}
	fd = base
	d[ClassInet] = 0
	var given int64
	maxC, maxV := ClassInet, int64(-1)
	for c := 0; c < NumClasses; c++ {
		share := inet * fd[c] / total
		d[c] += share
		given += share
		if fd[c] > maxV {
			maxV, maxC = fd[c], Class(c)
		}
	}
	// Rounding residue goes to the feeder's dominant class; deterministic
	// and sum-preserving.
	d[maxC] += inet - given
	return d
}

// Profile is the frozen result of a recorded run.
type Profile struct {
	// Cycles is the end-to-end cycle count the intervals tile.
	Cycles int64
	// Buckets is the critical-path class histogram; it sums to Cycles
	// exactly.
	Buckets [NumClasses]int64
	// Intervals is the (possibly truncated) interval ring, oldest first.
	Intervals []Interval
	// Spilled counts intervals collapsed into the buckets when the ring
	// overflowed; their per-interval detail is gone, their cycles are not.
	Spilled int
}

// Profile freezes and returns the recorded profile. Finish must have been
// called.
func (r *Recorder) Profile() *Profile {
	p := &Profile{
		Cycles:    r.endCycle,
		Intervals: r.intervals,
		Spilled:   r.spilled,
	}
	for c := 0; c < NumClasses; c++ {
		p.Buckets[c] = r.spill[c]
	}
	for i := range r.intervals {
		for c := 0; c < NumClasses; c++ {
			p.Buckets[c] += r.intervals[i].Delta[c]
		}
	}
	return p
}
