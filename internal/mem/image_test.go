package mem

import (
	"math/rand"
	"strings"
	"testing"

	"rockcress/internal/alloctest"
	"rockcress/internal/msg"
)

// scribble applies a random WriteWord/WriteLine sequence to g and to the
// dense reference copy ref, including lines that straddle a page boundary
// and writes into the store's last (possibly short) page.
func scribble(rng *rand.Rand, g *Global, ref []uint32, ops int) {
	line := make([]uint32, 16)
	for i := 0; i < ops; i++ {
		switch rng.Intn(4) {
		case 0:
			k := rng.Intn(len(ref))
			v := rng.Uint32()
			g.WriteWord(uint32(4*k), v)
			ref[k] = v
		case 1:
			k := rng.Intn(len(ref) - len(line))
			for j := range line {
				line[j] = rng.Uint32()
			}
			g.WriteLine(uint32(4*k), line)
			copy(ref[k:], line)
		case 2:
			// A line that starts 1..15 words before a page boundary.
			pages := (len(ref) - len(line)) / pageWords
			if pages == 0 {
				continue
			}
			k := (1+rng.Intn(pages))*pageWords - 1 - rng.Intn(len(line)-1)
			for j := range line {
				line[j] = rng.Uint32()
			}
			g.WriteLine(uint32(4*k), line)
			copy(ref[k:], line)
		case 3:
			k := len(ref) - 1 - rng.Intn(min(len(ref), 8))
			v := rng.Uint32()
			g.WriteWord(uint32(4*k), v)
			ref[k] = v
		}
	}
}

func sameAsDense(t *testing.T, what string, g *Global, ref []uint32) {
	t.Helper()
	if err := g.Err(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for k, want := range ref {
		if got := g.words[k]; got != want {
			t.Fatalf("%s: word %d = %#x, dense reference has %#x", what, k, got, want)
		}
	}
}

// dirtyCoversNonZero is the invariant the sparse image rests on: a word
// outside every dirty page is zero.
func dirtyCoversNonZero(t *testing.T, what string, g *Global) {
	t.Helper()
	for k, v := range g.words {
		p := k / pageWords
		if v != 0 && g.dirty[p/64]&(1<<(p%64)) == 0 {
			t.Fatalf("%s: word %d = %#x lies in page %d, which is not marked dirty", what, k, v, p)
		}
	}
}

func TestImageMatchesDenseCopy(t *testing.T) {
	// Sizes in words: several pages, not a page multiple, less than one page,
	// and more than 64 pages (a second bitmap word).
	for _, nw := range []int{8 * pageWords, 5*pageWords + 37, 300, 70*pageWords + 1} {
		rng := rand.New(rand.NewSource(int64(nw)))
		for round := 0; round < 20; round++ {
			src, err := NewGlobal(4 * nw)
			if err != nil {
				t.Fatal(err)
			}
			ref := make([]uint32, nw)
			scribble(rng, src, ref, 1+rng.Intn(40))
			dirtyCoversNonZero(t, "after writes", src)
			im := src.Snapshot()
			if im.Size() != 4*nw {
				t.Fatalf("image size %d, want %d", im.Size(), 4*nw)
			}
			// The image is a copy: later writes to the source must not reach it.
			scribble(rng, src, make([]uint32, nw), 10)
			src.Recycle()

			// The pool hands src back: all zero, no dirty page.
			fresh, _ := NewGlobal(4 * nw)
			fresh.Restore(im)
			sameAsDense(t, "restore into a fresh store", fresh, ref)
			dirtyCoversNonZero(t, "restored fresh store", fresh)

			// A target that was written since it was handed out: pages the
			// image lacks must come back zero.
			stale, _ := NewGlobal(4 * nw)
			scribble(rng, stale, make([]uint32, nw), 1+rng.Intn(40))
			stale.Restore(im)
			sameAsDense(t, "restore into a stale-dirty store", stale, ref)
			dirtyCoversNonZero(t, "restored stale store", stale)
			if got := stale.Snapshot().Pages(); got != im.Pages() {
				t.Fatalf("restored store has %d dirty pages, image has %d", got, im.Pages())
			}

			// Recycle after Restore scrubs everything Restore wrote.
			fresh.Recycle()
			stale.Recycle()
			a, _ := NewGlobal(4 * nw)
			b, _ := NewGlobal(4 * nw)
			sameAsDense(t, "recycled store", a, make([]uint32, nw))
			sameAsDense(t, "recycled store", b, make([]uint32, nw))
			a.Recycle()
			b.Recycle()
		}
	}
}

func TestImageCopiesOnlyDirtyPages(t *testing.T) {
	g, _ := NewGlobal(32 << 20)
	defer g.Recycle()
	g.WriteWord(0, 1)
	g.WriteWord(4*(5*pageWords+9), 2)
	g.WriteLine(4*(7*pageWords-4), make([]uint32, 16)) // pages 6 and 7
	im := g.Snapshot()
	if im.Pages() != 4 || im.Bytes() != 4*4*pageWords {
		t.Fatalf("image holds %d pages / %d bytes, want the 4 written pages", im.Pages(), im.Bytes())
	}
}

func TestImageRestoreSizeMismatchLatches(t *testing.T) {
	small, _ := NewGlobal(4 * pageWords)
	big, _ := NewGlobal(8 * pageWords)
	small.WriteWord(0, 7)
	big.WriteWord(4, 9)
	big.Restore(small.Snapshot())
	if err := big.Err(); err == nil || !strings.Contains(err.Error(), "restore of") {
		t.Fatalf("size mismatch not latched: %v", err)
	}
	if big.ReadWord(4) != 9 || big.ReadWord(0) != 0 {
		t.Fatal("a refused restore modified the store")
	}
}

// dirtyLine leaves one dirty line holding val at addr in the bank without
// writing it back.
func dirtyLine(b *LLCBank, d *DRAM, g *Global, addr, val uint32) {
	b.Accept(&msg.Message{Kind: msg.KindStoreReq, Src: 1, Dst: 64, Addr: addr,
		Vals: [msg.MaxWords]uint32{val}, Words: 1})
	runBank(b, d, g, 200)
}

func TestImageOverlayAddsUnwrittenPage(t *testing.T) {
	b, g, d, _, _ := newBank(t)
	// The store wrote pages 0 and 5; the cache holds dirty lines on page 3
	// (never written back: between the image's pages) and on page 5.
	g.WriteWord(0, 11)
	g.WriteWord(4*5*pageWords, 55)
	g.WriteWord(4*(5*pageWords+1), 56)
	dirtyLine(b, d, g, 4*3*pageWords, 33)
	dirtyLine(b, d, g, 4*5*pageWords, 99)
	if g.ReadWord(4*3*pageWords) != 0 {
		t.Fatal("test premise broken: the line was written back")
	}
	im := g.Snapshot()
	if im.Pages() != 2 {
		t.Fatalf("snapshot holds %d pages before the overlay, want 2", im.Pages())
	}
	b.OverlayDirty(im)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if im.Pages() != 3 {
		t.Fatalf("image holds %d pages after the overlay, want 3", im.Pages())
	}
	fresh, _ := NewGlobal(g.Size())
	fresh.Restore(im)
	for _, c := range []struct{ word, want uint32 }{
		{0, 11}, {3 * pageWords, 33}, {3*pageWords + 1, 0},
		{5 * pageWords, 99}, {5*pageWords + 1, 56},
	} {
		if got := fresh.ReadWord(4 * c.word); got != c.want {
			t.Errorf("word %d = %d after restore, want %d", c.word, got, c.want)
		}
	}
	dirtyCoversNonZero(t, "restored overlay", fresh)
	// The overlay left the bank and its store alone.
	if g.ReadWord(4*5*pageWords) != 55 {
		t.Fatal("overlay wrote through to the global store")
	}
}

func TestImageOverlayOutOfRangeLatches(t *testing.T) {
	b, g, d, _, _ := newBank(t)
	dirtyLine(b, d, g, 4*3*pageWords, 33)
	small, _ := NewGlobal(4 * pageWords)
	im := small.Snapshot()
	b.OverlayDirty(im)
	if err := b.Err(); err == nil || !strings.Contains(err.Error(), "outside snapshot") {
		t.Fatalf("out-of-range dirty line not latched: %v", err)
	}
	if im.Pages() != 0 {
		t.Fatalf("refused overlay grew the image to %d pages", im.Pages())
	}
}

// TestSnapshotsReuseImagesWithoutGrowing: a recovery ladder publishes a
// small checkpoint, then a larger one, and recycles both. Run twice, the
// second pass must find an image that already fits each snapshot: a small
// snapshot that took the large one's parked image would leave the large
// snapshot the small image to grow.
func TestSnapshotsReuseImagesWithoutGrowing(t *testing.T) {
	const nw = 40 * pageWords // a store size no other test parks images of
	small, _ := NewGlobal(4 * nw)
	large, _ := NewGlobal(4 * nw)
	defer small.Recycle()
	defer large.Recycle()
	for p := 0; p < 20; p++ {
		if p < 2 {
			small.WriteWord(uint32(4*p*pageWords), 1)
		}
		large.WriteWord(uint32(4*p*pageWords), 1)
	}
	pass := func() {
		s := small.Snapshot()
		l := large.Snapshot()
		s.Recycle()
		l.Recycle()
	}
	pass()
	if n := alloctest.Count(pass); n != 0 {
		t.Errorf("the second small-then-large pass allocated %d times, want 0", n)
	}
}
