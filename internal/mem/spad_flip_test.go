package mem

import (
	"math/rand"
	"reflect"
	"testing"
)

// spadDriver feeds a scratchpad the traffic a fault-free vload stream would:
// every slot of the frame window has one fill in progress, its words arrive
// once each in a random order, and the head frame is consumed in order.
type spadDriver struct {
	s    *Scratchpad
	r    *rand.Rand
	rem  [][]int // per slot: word indexes of the current fill still to arrive
	fill []int64 // per slot: sequence number of the current fill
}

func newSpadDriver(r *rand.Rand, fw, frames int) *spadDriver {
	s, _ := newIntegritySpad(fw, frames, frames)
	d := &spadDriver{s: s, r: r,
		rem: make([][]int, frames), fill: make([]int64, frames)}
	for slot := range d.rem {
		d.rem[slot], d.fill[slot] = r.Perm(fw), int64(slot)
	}
	return d
}

// clone copies the driver and every piece of scratchpad state a flip, an
// arrival or a frame open can touch.
func (d *spadDriver) clone() *spadDriver {
	s := *d.s
	st := *d.s.st
	s.st = &st
	s.words = append([]uint32(nil), s.words...)
	s.counters = append([]int(nil), s.counters...)
	s.parity = append([]uint32(nil), s.parity...)
	s.pending = append([]int(nil), s.pending...)
	s.segs = make([][]FrameSeg, len(d.s.segs))
	for i, g := range d.s.segs {
		s.segs[i] = append([]FrameSeg(nil), g...)
	}
	c := &spadDriver{s: &s, r: d.r, rem: make([][]int, len(d.rem)), fill: append([]int64(nil), d.fill...)}
	for i, w := range d.rem {
		c.rem[i] = append([]int(nil), w...)
	}
	return c
}

// arrive delivers the next outstanding word of slot's fill.
func (d *spadDriver) arrive(slot int) {
	fw := d.s.FrameWords()
	i := d.rem[slot][0]
	d.rem[slot] = d.rem[slot][1:]
	d.s.ArriveWord(uint32(4*(slot*fw+i)), 0x4000+uint32(4*(int(d.fill[slot])*fw+i)), d.r.Uint32())
}

func (d *spadDriver) head() int { return int(d.s.HeadSeq() % int64(d.s.NumFrames())) }

// consume frees the (full, open) head frame and starts the slot's next fill.
func (d *spadDriver) consume() {
	slot := d.head()
	d.s.FreeFrame()
	d.rem[slot], d.fill[slot] = d.r.Perm(d.s.FrameWords()), d.fill[slot]+int64(d.s.NumFrames())
}

// drain finishes every fill in the window and opens each frame in turn,
// stopping at the first that fails its parity check.
func (d *spadDriver) drain() (poisoned bool) {
	for range d.rem {
		for slot := d.head(); len(d.rem[slot]) > 0; {
			d.arrive(slot)
		}
		if !d.s.FrameReady() {
			return d.s.Poisoned()
		}
		d.consume()
	}
	return d.s.Poisoned()
}

// TestSpadFlipWouldPoisonMatchesFlipBit holds the probe's predicate against
// what a flip really does. Random arrival orders, frame opens, consumption
// and ring wrap-around drive an integrity-checked scratchpad; at random
// points a random offset — arrived and not-yet-arrived frame words, the
// verified head, the data region, unaligned and out-of-range offsets, and
// the same on a decommissioned or integrity-off pad — is put to
// FlipWouldPoison, and then flipped for real on a copy whose fills are
// finished and whose frames are opened one by one: a frame is poisoned iff
// the predicate said so, and asking changed nothing.
func TestSpadFlipWouldPoisonMatchesFlipBit(t *testing.T) {
	var asked, bit int
	for seed := int64(0); seed < 48; seed++ {
		r := rand.New(rand.NewSource(seed))
		fw, frames := 1+r.Intn(12), 2+r.Intn(4)
		d := newSpadDriver(r, fw, frames)
		region := uint32(d.s.FrameRegionBytes())
		for step := 0; step < 400; step++ {
			switch op := r.Intn(10); {
			case op < 5: // one word arrives somewhere in the window
				if slot := r.Intn(frames); len(d.rem[slot]) > 0 {
					d.arrive(slot)
				}
			case op < 7: // frame_start, and sometimes remem, on a full head
				if len(d.rem[d.head()]) > 0 {
					break
				}
				if !d.s.FrameReady() {
					t.Fatalf("seed %d step %d: clean head frame not ready", seed, step)
				}
				if r.Intn(2) == 0 {
					d.consume()
				}
			default:
				var off uint32
				switch r.Intn(6) {
				case 0:
					off = region + uint32(4*r.Intn(16)) // data region
				case 1:
					off = uint32(r.Intn(int(region))) | 1 // unaligned
				case 2:
					off = uint32(d.s.SizeBytes() + 4*r.Intn(8)) // out of range
				default:
					off = uint32(4 * r.Intn(fw*frames))
				}
				c := d.clone()
				switch r.Intn(8) {
				case 0:
					c.s.Decommission()
				case 1:
					c.s.integrity = false
				}
				before := c.clone()
				want := c.s.FlipWouldPoison(off)
				if !reflect.DeepEqual(c.s, before.s) {
					t.Fatalf("seed %d step %d: FlipWouldPoison(%#x) changed the scratchpad", seed, step, off)
				}
				c.s.FlipBit(off, uint8(r.Intn(32)))
				got := !c.s.Dead() && c.drain()
				if got != want {
					t.Fatalf("seed %d step %d: FlipWouldPoison(%#x) = %v, but the flip poisoned a frame: %v "+
						"(%dx%d frames, head seq %d, verified seq %d, counters %v)", seed, step, off, want, got,
						fw, frames, d.s.headSeq, d.s.verifiedSeq, d.s.counters)
				}
				asked++
				if want {
					bit++
				}
			}
		}
		if err := d.s.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d.s.HeadSeq() < int64(2*frames) {
			t.Errorf("seed %d: only %d frames consumed, the ring never wrapped twice", seed, d.s.HeadSeq())
		}
	}
	if bit == 0 || bit == asked {
		t.Errorf("%d of %d flips poison: the property needs both answers", bit, asked)
	}
}
