package mem

import (
	"math/rand"
	"strings"
	"testing"

	"rockcress/internal/stats"
)

// newIntegritySpad builds a small integrity-checked scratchpad with a fixed
// clock for error context.
func newIntegritySpad(frameWords, frames, hwFrames int) (*Scratchpad, *stats.Core) {
	s, st := oneSpad(hwFrames)
	EnableIntegrity([]*Scratchpad{s})
	s.Configure(frameWords, frames)
	return s, st
}

// fillFrame delivers a full frame of vload words into the given slot, as the
// data network would, returning the values. gbase is the global address the
// run pretends to have loaded from.
func fillFrame(r *rand.Rand, s *Scratchpad, slot int, gbase uint32) []uint32 {
	fw := s.FrameWords()
	vals := make([]uint32, fw)
	base := uint32(slot * fw * 4)
	// Arrival order within a frame does not matter (§3.3): deliver the words
	// in a random permutation.
	for _, i := range r.Perm(fw) {
		vals[i] = r.Uint32()
		s.ArriveWord(base+uint32(4*i), gbase+uint32(4*i), vals[i])
	}
	return vals
}

// TestSpadReplayStaleResponses is the frame-counter edge case the replay
// protocol must survive: a replayed head frame receives, interleaved with
// its refill, stale words from the original (corrupted) vload still in
// flight. Property: stale arrivals after the refill are dropped and counted,
// the parity re-check passes on the refilled data, and the frame opens with
// the clean values — across random geometries and flip positions, with no
// structured error ever latched.
func TestSpadReplayStaleResponses(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		r := rand.New(rand.NewSource(seed))
		fw := 1 + r.Intn(16)
		frames := 2 + r.Intn(4)
		s, st := newIntegritySpad(fw, frames, frames)

		vals := fillFrame(r, s, 0, 0x4000)
		// Corrupt one arrived word: the frame is full, so the flip is pending
		// and the open-time parity check must catch it.
		victim := uint32(4 * r.Intn(fw))
		if landed, inFrame := s.FlipBit(victim, uint8(r.Intn(32))); !landed || !inFrame {
			t.Fatalf("seed %d: flip at %#x did not land in frame", seed, victim)
		}
		if s.FrameReady() {
			t.Fatalf("seed %d: corrupted frame passed its parity check", seed)
		}
		if !s.Poisoned() || st.FramePoisons != 1 {
			t.Fatalf("seed %d: frame not poisoned (poisons %d)", seed, st.FramePoisons)
		}
		segs, complete := s.HeadSegments()
		if !complete || len(segs) == 0 {
			t.Fatalf("seed %d: vload-delivered frame has no complete delivery record", seed)
		}

		s.BeginReplay()
		if !s.Replaying() || s.Poisoned() {
			t.Fatalf("seed %d: BeginReplay left poisoned=%v replaying=%v", seed, s.Poisoned(), s.Replaying())
		}
		// Refill with the clean values, then deliver a burst of stale
		// originals still in flight: every extra arrival must be dropped.
		for _, i := range r.Perm(fw) {
			s.ArriveWord(uint32(4*i), 0x4000+uint32(4*i), vals[i])
		}
		stale := 1 + r.Intn(2*fw)
		for i := 0; i < stale; i++ {
			s.ArriveWord(uint32(4*r.Intn(fw)), 0x4000, r.Uint32()|1<<31)
		}
		if st.ReplayStaleDrops != int64(stale) {
			t.Fatalf("seed %d: %d stale arrivals, %d drops recorded", seed, stale, st.ReplayStaleDrops)
		}
		if !s.FrameReady() {
			t.Fatalf("seed %d: replayed frame failed its re-verification", seed)
		}
		if s.Replaying() || s.Suspect() {
			t.Fatalf("seed %d: verified replay left replaying=%v suspect=%v", seed, s.Replaying(), s.Suspect())
		}
		for i := 0; i < fw; i++ {
			if got := s.ReadWord(uint32(4 * i)); got != vals[i] {
				t.Fatalf("seed %d: word %d = %#x after replay, want %#x", seed, i, got, vals[i])
			}
		}
		if s.Err() != nil {
			t.Fatalf("seed %d: unexpected structured error: %v", seed, s.Err())
		}
	}
}

// TestSpadReplayAcrossWraparound runs enough frames through a small queue
// that the slot ring wraps several times, poisoning and replaying a random
// subset along the way. Property: the verified-sequence latch and per-slot
// state never leak between a slot's successive tenants — every frame opens
// with its own data, the head sequence advances exactly once per consumed
// frame, and poison counts match the injected flips.
func TestSpadReplayAcrossWraparound(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		r := rand.New(rand.NewSource(seed))
		fw := 1 + r.Intn(8)
		frames := 2 + r.Intn(3)
		s, st := newIntegritySpad(fw, frames, frames)

		total := frames*3 + r.Intn(frames*3) // several wraps of the ring
		poisons := 0
		for f := 0; f < total; f++ {
			slot := int(s.HeadSeq()) % frames
			gbase := uint32(0x4000 + 0x100*f)
			vals := fillFrame(r, s, slot, gbase)
			if r.Intn(3) == 0 {
				victim := uint32(4 * (slot*fw + r.Intn(fw)))
				s.FlipBit(victim, uint8(r.Intn(32)))
				if s.FrameReady() {
					t.Fatalf("seed %d frame %d: corrupted frame opened", seed, f)
				}
				poisons++
				s.BeginReplay()
				for _, i := range r.Perm(fw) {
					s.ArriveWord(uint32(4*(slot*fw+i)), gbase+uint32(4*i), vals[i])
				}
			}
			if !s.FrameReady() {
				t.Fatalf("seed %d frame %d: clean frame did not open", seed, f)
			}
			base := s.FrameBase()
			if base != uint32(slot*fw*4) {
				t.Fatalf("seed %d frame %d: FrameBase %#x, want %#x", seed, f, base, slot*fw*4)
			}
			for i := 0; i < fw; i++ {
				if got := s.ReadWord(base + uint32(4*i)); got != vals[i] {
					t.Fatalf("seed %d frame %d: word %d = %#x, want %#x (stale tenant?)", seed, f, i, got, vals[i])
				}
			}
			s.FreeFrame()
			if s.HeadSeq() != int64(f+1) {
				t.Fatalf("seed %d frame %d: head seq %d, want %d", seed, f, s.HeadSeq(), f+1)
			}
		}
		if st.FramePoisons != int64(poisons) {
			t.Fatalf("seed %d: %d poisons recorded, %d injected", seed, st.FramePoisons, poisons)
		}
		if st.FramesConsumed != int64(total) {
			t.Fatalf("seed %d: %d frames consumed, want %d", seed, st.FramesConsumed, total)
		}
		if s.Err() != nil || s.Suspect() {
			t.Fatalf("seed %d: err=%v suspect=%v after clean replays", seed, s.Err(), s.Suspect())
		}
	}
}

// TestSpadReplayUnderFramePressure exhausts the hardware frame window while
// the head frame is mid-replay: stale arrivals for the replaying head are
// absorbed, but data for a frame beyond the window must still latch the
// structured overflow error (never panic), stamped with the injection clock.
func TestSpadReplayUnderFramePressure(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		r := rand.New(rand.NewSource(seed))
		fw := 1 + r.Intn(8)
		frames := 2 + r.Intn(3)
		s, _ := newIntegritySpad(fw, frames, frames)
		now := int64(100 + r.Intn(1000))
		s.SetClock(func() int64 { return now })

		// Fill the entire window: every hardware counter in use.
		valsBySlot := make([][]uint32, frames)
		for slot := 0; slot < frames; slot++ {
			valsBySlot[slot] = fillFrame(r, s, slot, uint32(0x4000+0x100*slot))
		}
		// Poison and replay the head while the window stays full.
		s.FlipBit(0, uint8(r.Intn(32)))
		if s.FrameReady() {
			t.Fatalf("seed %d: corrupted head opened", seed)
		}
		s.BeginReplay()
		for _, i := range r.Perm(fw) {
			s.ArriveWord(uint32(4*i), 0x4000+uint32(4*i), valsBySlot[0][i])
		}
		// Stale traffic aimed at the replaying head: absorbed.
		s.ArriveWord(0, 0x4000, r.Uint32())
		if s.Err() != nil {
			t.Fatalf("seed %d: stale arrival under full window errored: %v", seed, s.Err())
		}
		// Traffic for a full non-head slot is a genuine §3.3 overflow: the
		// replay exemption must not mask it.
		over := 1 + r.Intn(frames-1)
		s.ArriveWord(uint32(over*fw*4), 0x5000, r.Uint32())
		if s.Err() == nil {
			t.Fatalf("seed %d: overflow into full slot %d went undetected", seed, over)
		}
		if !strings.Contains(s.Err().Error(), "overflow") {
			t.Fatalf("seed %d: error does not mention overflow: %v", seed, s.Err())
		}
		if s.ErrCycle() != now {
			t.Fatalf("seed %d: ErrCycle %d, want injection clock %d", seed, s.ErrCycle(), now)
		}
	}
}
