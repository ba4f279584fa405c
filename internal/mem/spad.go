package mem

import (
	"fmt"

	"rockcress/internal/stats"
	"rockcress/internal/trace"
)

// FrameSeg records where one contiguous run of vload words landed in a
// frame: the scratchpad byte offset, the global byte address it was read
// from, and the word count. The machine's replay manager re-issues these
// runs as narrow self vloads when a frame fails its parity check.
type FrameSeg struct {
	Off   uint32
	Addr  uint32
	Words int
}

// Scratchpad is a tile's explicitly managed local memory, augmented with
// the frame counters of §3.3: a fixed number of hardware counters track how
// many words have arrived in each open frame, allowing out-of-order arrival
// within a frame while enforcing in-order consumption of frames.
//
// The frame region occupies the bottom of the scratchpad
// (frameWords*numFrames words); the rest is free for program data.
//
// With integrity checking enabled (fault-injection runs only), each frame
// additionally carries a parity word accumulated as vload responses arrive
// and verified lazily the first time the head frame opens. A mismatch marks
// the frame poisoned — frame_start stalls instead of feeding corrupt data —
// until the machine replays the frame's vload traffic from the delivery
// record. A fault-free machine never enables any of this, so the hot paths
// stay identical to the seed simulator.
type Scratchpad struct {
	tile     int
	words    []uint32
	hwFrames int // hardware counters (paper: five 10-bit counters)

	frameWords int // words per frame (0 until configured)
	numFrames  int
	counters   []int
	headSeq    int64

	st   *stats.Core
	err  error
	dead bool // decommissioned (tile killed): all accesses become no-ops

	// Integrity extension (zero-cost when off).
	integrity   bool
	parity      []uint32     // per-slot XOR accumulator
	segs        [][]FrameSeg // per-slot delivery record for replay
	pending     []int        // per-slot injected flips not yet verified away
	verifiedSeq int64        // head seq whose parity check already passed
	poisoned    bool         // head frame failed verification
	replaying   bool         // head frame is being refilled by a replay
	suspect     bool         // corruption verification can no longer catch

	// clock supplies the machine cycle for error context; errCycle records
	// the cycle the first invariant violation latched.
	clock    func() int64
	errCycle int64

	// Event tracing (nil when disabled; never touches simulated state).
	rec       *trace.Recorder
	fillStart []int64 // per-slot cycle the first word of the current fill arrived
	openAt    []int64 // per-slot cycle the frame first opened; -1 when unopened
}

// NewScratchpads builds one scratchpad per entry of st — tile t's counts
// into st[t] — each of the given byte size with the given number of
// hardware frame counters. Words and every per-frame array come from one
// slab per kind, the per-frame arrays sized to the hardware counters once
// here, so configuring frames never allocates. The size is configuration
// input, so a bad value is a validated error, not a panic.
func NewScratchpads(bytes, hwFrames int, st []stats.Core) ([]*Scratchpad, error) {
	if bytes%4 != 0 || bytes <= 0 {
		return nil, fmt.Errorf("mem: scratchpad size %d must be a positive word multiple", bytes)
	}
	n, nw := len(st), bytes/4
	var (
		slab      = make([]Scratchpad, n)
		spads     = make([]*Scratchpad, n)
		words     = make([]uint32, n*nw)
		counters  = make([]int, n*hwFrames)
		parity    = make([]uint32, n*hwFrames)
		segs      = make([][]FrameSeg, n*hwFrames)
		pending   = make([]int, n*hwFrames)
		fillStart = make([]int64, n*hwFrames)
		openAt    = make([]int64, n*hwFrames)
	)
	for t := range spads {
		// The per-frame arrays start empty; Configure extends them within
		// the hardware counters' capacity.
		s := &slab[t]
		*s = Scratchpad{tile: t, words: part(words, t, nw), hwFrames: hwFrames, st: &st[t],
			counters:    part(counters, t, hwFrames)[:0],
			parity:      part(parity, t, hwFrames)[:0],
			segs:        part(segs, t, hwFrames)[:0],
			pending:     part(pending, t, hwFrames)[:0],
			fillStart:   part(fillStart, t, hwFrames)[:0],
			openAt:      part(openAt, t, hwFrames)[:0],
			verifiedSeq: -1, errCycle: -1}
		spads[t] = s
	}
	return spads, nil
}

// resize sets a per-frame array to n zero slots within its capacity.
func resize[T any](a []T, n int) []T {
	a = a[:n]
	clear(a)
	return a
}

// recordSegs is the number of delivery-record segments each frame slot
// holds before append first grows its record.
const recordSegs = 4

// EnableIntegrity turns on per-frame parity accumulation, delivery
// recording, and lazy verification at frame-open for spads, which
// NewScratchpads built with one frame-counter count. Every frame slot's
// delivery record starts as a recordSegs-segment piece of one slab, and
// grows past it only on a longer record. The machine turns this on only
// for fault-injection runs with replay enabled.
func EnableIntegrity(spads []*Scratchpad) {
	if len(spads) == 0 {
		return
	}
	hw := spads[0].hwFrames
	recs := make([]FrameSeg, len(spads)*hw*recordSegs)
	for t, s := range spads {
		s.integrity = true
		segs := s.segs[:hw]
		for i := range segs {
			segs[i] = part(recs, t*hw+i, recordSegs)[:0]
		}
	}
}

// SetClock wires the machine's cycle counter in so invariant violations are
// stamped with the cycle they occur at (not the cycle they are discovered).
func (s *Scratchpad) SetClock(fn func() int64) { s.clock = fn }

// SetRecorder attaches an event recorder for frame-lifecycle spans. The
// machine wires it (with the clock) before the run; nil disables tracing.
func (s *Scratchpad) SetRecorder(rec *trace.Recorder) {
	s.rec = rec
	if rec != nil && s.numFrames > 0 {
		s.initTraceSlots()
	}
}

func (s *Scratchpad) initTraceSlots() {
	s.fillStart = resize(s.fillStart, s.numFrames)
	s.openAt = resize(s.openAt, s.numFrames)
	for i := range s.openAt {
		s.openAt[i] = -1
	}
}

func (s *Scratchpad) now() int64 {
	if s.clock == nil {
		return 0
	}
	return s.clock()
}

// FullFrames counts completely filled, not-yet-consumed frames (the
// occupancy gauge the telemetry sampler reads between cycles).
func (s *Scratchpad) FullFrames() int {
	n := 0
	for _, c := range s.counters {
		if c == s.frameWords {
			n++
		}
	}
	return n
}

// Err returns the first invariant violation observed, if any.
func (s *Scratchpad) Err() error { return s.err }

// ErrCycle returns the cycle the first violation latched at (-1 if none, or
// no clock was wired).
func (s *Scratchpad) ErrCycle() int64 { return s.errCycle }

func (s *Scratchpad) fail(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("scratchpad %d: %s", s.tile, fmt.Sprintf(format, args...))
		if s.clock != nil {
			s.errCycle = s.clock()
		}
	}
}

// SizeBytes returns the scratchpad capacity.
func (s *Scratchpad) SizeBytes() int { return len(s.words) * 4 }

// FrameRegionBytes returns the bytes reserved for the frame queue.
func (s *Scratchpad) FrameRegionBytes() int { return s.frameWords * s.numFrames * 4 }

// NumFrames returns the configured frame-window depth.
func (s *Scratchpad) NumFrames() int { return s.numFrames }

// FrameWords returns the configured frame size in words.
func (s *Scratchpad) FrameWords() int { return s.frameWords }

// Configure sets the frame size and count (the CsrFrameCfg write in §2.3.1)
// and resets the queue. frames may not exceed the hardware counters.
func (s *Scratchpad) Configure(frameWords, frames int) {
	if frameWords <= 0 || frames <= 0 {
		s.fail("frame config %dx%d must be positive", frameWords, frames)
		return
	}
	if frames > s.hwFrames {
		s.fail("configured frames %d exceed %d hardware counters", frames, s.hwFrames)
		return
	}
	if frameWords*frames > len(s.words) {
		s.fail("frame region %d words exceeds scratchpad %d words", frameWords*frames, len(s.words))
		return
	}
	s.frameWords = frameWords
	s.numFrames = frames
	s.counters = resize(s.counters, frames)
	s.headSeq = 0
	if s.rec != nil {
		s.initTraceSlots()
	}
	if s.integrity {
		s.parity = resize(s.parity, frames)
		s.segs = s.segs[:frames]
		for i := range s.segs {
			s.segs[i] = s.segs[i][:0] // keep each record's capacity
		}
		s.pending = resize(s.pending, frames)
		s.verifiedSeq = -1
		s.poisoned = false
		s.replaying = false
	}
}

func (s *Scratchpad) checkOff(off uint32) bool {
	if off%4 != 0 {
		s.fail("unaligned access at offset %#x", off)
		return false
	}
	if int(off/4) >= len(s.words) {
		s.fail("access at offset %#x beyond %d bytes", off, s.SizeBytes())
		return false
	}
	return true
}

// Decommission powers the scratchpad off alongside its killed tile: all
// subsequent accesses (including in-flight vload arrivals) are silently
// dropped rather than tripping frame-counter invariants on a dead tile.
func (s *Scratchpad) Decommission() { s.dead = true }

// Dead reports whether the scratchpad has been decommissioned.
func (s *Scratchpad) Dead() bool { return s.dead }

// FlipBit flips one bit of the word at byte offset off (fault injection:
// silent data corruption). It reports whether the flip landed in-range and
// whether it landed inside the frame region — the distinction the
// SpadFlipsFrame/SpadFlipsData counters key on. Frame-region flips
// on an integrity-checked scratchpad will be caught by the parity check
// when the frame opens; data-region flips (and flips into a frame already
// verified) are beyond what frame replay can repair, so the scratchpad is
// marked suspect and the machine stops publishing checkpoints.
func (s *Scratchpad) FlipBit(off uint32, bit uint8) (landed, inFrame bool) {
	site, slot := s.flipSite(off)
	if site == flipMiss || bit > 31 {
		return false, false
	}
	s.words[off/4] ^= 1 << bit
	if s.integrity {
		if site == flipOpenFrame {
			s.pending[slot]++
		} else {
			s.suspect = true
		}
	}
	return true, site != flipData
}

// Where a flip at a byte offset lands, as the integrity layer tells them
// apart.
const (
	flipMiss         = iota // dead pad, unaligned or out of range: no word changes
	flipData                // outside the frame region
	flipVerifiedHead        // the head frame, after its parity check passed
	flipOpenFrame           // a frame slot whose check is still to come
)

// flipSite classifies offset off for FlipBit and FlipWouldPoison, and
// names the frame slot for the two frame-region sites.
func (s *Scratchpad) flipSite(off uint32) (site, slot int) {
	if s.dead || off%4 != 0 || int(off/4) >= len(s.words) {
		return flipMiss, 0
	}
	if s.numFrames == 0 || off >= uint32(s.FrameRegionBytes()) {
		return flipData, 0
	}
	slot = int(off) / (s.frameWords * 4)
	if slot == int(s.headSeq%int64(s.numFrames)) && s.verifiedSeq == s.headSeq {
		// The head frame already passed its check; the consumer may read the
		// flipped word unverified.
		return flipVerifiedHead, slot
	}
	return flipOpenFrame, slot
}

// FlipWouldPoison reports whether a FlipBit at off, landing now, would make
// the slot's parity check fail when its frame opens. That takes integrity
// checking, a frame slot still to be verified, and a word that has already
// arrived in the slot's current fill: the parity accumulator then holds the
// word's true value and no later arrival overwrites the flipped one. Every
// other flip is invisible to the check — overwritten by the arrival still to
// come, outside the frame region, or behind a check that already passed. It
// reads only; the replay probe asks it of a machine no fault has touched.
func (s *Scratchpad) FlipWouldPoison(off uint32) bool {
	site, slot := s.flipSite(off)
	if !s.integrity || site != flipOpenFrame {
		return false
	}
	for _, g := range s.segs[slot] {
		if off >= g.Off && off < g.Off+uint32(4*g.Words) {
			return true
		}
	}
	return false
}

// ReadWord performs a program load from the scratchpad.
func (s *Scratchpad) ReadWord(off uint32) uint32 {
	if s.dead || !s.checkOff(off) {
		return 0
	}
	s.st.SpadReads++
	return s.words[off/4]
}

// WriteWord performs a program store (local or remote) to the scratchpad.
func (s *Scratchpad) WriteWord(off uint32, v uint32) {
	if s.dead || !s.checkOff(off) {
		return
	}
	s.st.SpadWrites++
	s.words[off/4] = v
}

// ArriveWord delivers one word of vload data from the data network. Words
// landing inside the frame region increment the owning frame's counter;
// arrival order within a frame does not matter (§3.3). gaddr is the global
// byte address the word was read from (the LLC stamps responses with it);
// it feeds the delivery record replay reconstructs a frame from.
//
// It reports whether this word completed a frame slot — the only spad-side
// event that can flip FrameReady, and hence the only arrival a core parked
// on a frame stall needs a wake for.
func (s *Scratchpad) ArriveWord(off, gaddr uint32, v uint32) bool {
	if s.dead || !s.checkOff(off) {
		return false
	}
	region := uint32(s.FrameRegionBytes())
	if s.numFrames == 0 || off >= region {
		s.st.SpadWrites++
		s.words[off/4] = v
		return false
	}
	slot := int(off) / (s.frameWords * 4)
	if s.counters[slot] >= s.frameWords {
		if s.replaying && slot == int(s.headSeq%int64(s.numFrames)) {
			// A replayed head frame legitimately sees extra arrivals: stale
			// words from the original vload still in flight, or duplicates
			// from a timed-out replay attempt re-issued in full. Drop them;
			// the parity check at frame-open catches any torn interleave.
			s.st.ReplayStaleDrops++
			return false
		}
		s.fail("frame slot %d overflow: data arrived for a frame more than %d ahead of the head (paper Fig. 9)",
			slot, s.numFrames)
		return false
	}
	s.st.SpadWrites++
	s.words[off/4] = v
	s.counters[slot]++
	if s.rec != nil {
		switch s.counters[slot] {
		case 1:
			s.fillStart[slot] = s.now()
		case s.frameWords:
			t := s.now()
			s.rec.Span(trace.EvFrameFill, s.fillStart[slot], t-s.fillStart[slot],
				int64(s.tile), int64(slot))
		}
	}
	if s.integrity {
		s.parity[slot] ^= v
		s.recordSeg(slot, off, gaddr)
	}
	return s.counters[slot] == s.frameWords
}

// recordSeg appends one delivered word to the slot's delivery record,
// merging contiguous runs (responses stream consecutively, so a frame's
// record stays a handful of segments).
func (s *Scratchpad) recordSeg(slot int, off, gaddr uint32) {
	segs := s.segs[slot]
	if n := len(segs); n > 0 {
		last := &segs[n-1]
		if off == last.Off+uint32(4*last.Words) && gaddr == last.Addr+uint32(4*last.Words) {
			last.Words++
			return
		}
	}
	s.segs[slot] = append(segs, FrameSeg{Off: off, Addr: gaddr, Words: 1})
}

// FrameReady reports whether the head frame is completely filled. With
// integrity on, a full frame must also pass its parity check the first time
// it opens; a mismatch poisons the frame (FrameReady stays false, the
// consumer records frame stalls) until a replay refills it.
func (s *Scratchpad) FrameReady() bool {
	if s.numFrames == 0 {
		s.fail("frame_start before frame configuration")
		return false
	}
	slot := int(s.headSeq % int64(s.numFrames))
	if s.counters[slot] != s.frameWords {
		return false
	}
	if !s.integrity {
		return true
	}
	return s.verifyHead(slot)
}

// verifyHead recomputes the head frame's XOR parity against the arrival
// accumulator. One pass per frame: a passing check is latched for the
// frame's lifetime.
func (s *Scratchpad) verifyHead(slot int) bool {
	if s.poisoned {
		return false
	}
	if s.verifiedSeq == s.headSeq {
		return true
	}
	base := slot * s.frameWords
	var x uint32
	for i := 0; i < s.frameWords; i++ {
		x ^= s.words[base+i]
	}
	if x != s.parity[slot] {
		s.poisoned = true
		s.replaying = false
		s.st.FramePoisons++
		if s.rec != nil {
			s.rec.Instant(trace.EvFramePoison, s.now(), int64(s.tile), s.headSeq, int64(slot))
		}
		return false
	}
	s.verifiedSeq = s.headSeq
	s.replaying = false
	s.pending[slot] = 0 // any injected flip was overwritten before it mattered
	return true
}

// Poisoned reports whether the head frame failed its parity check and is
// waiting for a replay.
func (s *Scratchpad) Poisoned() bool { return s.poisoned }

// Replaying reports whether a frame replay is refilling the head frame.
func (s *Scratchpad) Replaying() bool { return s.replaying }

// Suspect reports whether the scratchpad may hold corruption that the
// integrity layer can no longer detect or repair: an unverifiable flip
// landed, a replay was abandoned, or verification is still pending. The
// machine refuses to publish checkpoints while any scratchpad is suspect.
func (s *Scratchpad) Suspect() bool {
	if s.suspect || s.poisoned || s.replaying {
		return true
	}
	for _, n := range s.pending {
		if n > 0 {
			return true
		}
	}
	return false
}

// HeadSegments returns a copy of the head frame's delivery record and
// whether it covers the whole frame (only vload-delivered frames can be
// replayed; frames part-written by program stores cannot).
func (s *Scratchpad) HeadSegments() (segs []FrameSeg, complete bool) {
	if s.numFrames == 0 {
		return nil, false
	}
	slot := int(s.headSeq % int64(s.numFrames))
	total := 0
	for _, g := range s.segs[slot] {
		total += g.Words
	}
	return append([]FrameSeg(nil), s.segs[slot]...), total == s.frameWords
}

// BeginReplay resets the head frame for a replayed refill: the counter,
// parity accumulator, and delivery record restart from empty, and the slot
// tolerates stale arrivals beyond its capacity until verification passes.
func (s *Scratchpad) BeginReplay() {
	if s.numFrames == 0 {
		return
	}
	slot := int(s.headSeq % int64(s.numFrames))
	s.counters[slot] = 0
	s.parity[slot] = 0
	s.segs[slot] = s.segs[slot][:0]
	s.pending[slot] = 0
	s.poisoned = false
	s.replaying = true
}

// AbandonReplay gives up on repairing the head frame (retries exhausted on
// a grouped tile: the machine breaks the group instead). The scratchpad
// stays suspect so no checkpoint is published from this state.
func (s *Scratchpad) AbandonReplay() {
	s.suspect = true
	s.poisoned = false
	s.replaying = false
}

// FailReplay gives up on repairing the head frame on an ungrouped tile,
// latching a structured error: with no group to break, the run itself must
// restart.
func (s *Scratchpad) FailReplay() {
	s.AbandonReplay()
	s.fail("frame replay exhausted retries on poisoned frame (head seq %d)", s.headSeq)
}

// FrameBase returns the byte offset of the head frame (the frame_start
// writeback value).
func (s *Scratchpad) FrameBase() uint32 {
	if s.rec != nil && s.numFrames > 0 {
		slot := int(s.headSeq % int64(s.numFrames))
		if s.openAt[slot] < 0 {
			s.openAt[slot] = s.now()
			s.rec.Instant(trace.EvFrameOpen, s.openAt[slot], int64(s.tile), s.headSeq, int64(slot))
		}
	}
	return uint32(s.headSeq%int64(s.numFrames)) * uint32(s.frameWords*4)
}

// FreeFrame releases the head frame (the remem instruction): its counter
// resets and the window advances.
func (s *Scratchpad) FreeFrame() {
	if s.numFrames == 0 {
		s.fail("remem before frame configuration")
		return
	}
	slot := s.headSeq % int64(s.numFrames)
	if s.counters[slot] != s.frameWords {
		s.fail("remem on frame with %d/%d words", s.counters[slot], s.frameWords)
		return
	}
	s.counters[slot] = 0
	if s.integrity {
		s.parity[slot] = 0
		s.segs[slot] = s.segs[slot][:0]
		if s.pending[slot] > 0 {
			// A flip raced between verification and release; the consumer
			// may have read it.
			s.suspect = true
			s.pending[slot] = 0
		}
	}
	if s.rec != nil {
		t := s.now()
		start := s.openAt[slot]
		if start < 0 {
			start = t
		}
		s.rec.Span(trace.EvFrameConsume, start, t-start, int64(s.tile), s.headSeq, int64(slot))
		s.openAt[slot] = -1
	}
	s.headSeq++
	s.st.FramesConsumed++
}

// HeadSeq returns the number of frames consumed so far.
func (s *Scratchpad) HeadSeq() int64 { return s.headSeq }
