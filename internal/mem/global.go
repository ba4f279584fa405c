// Package mem models the Rockcress memory system: the flat DRAM-backed
// global store, the fixed-latency fixed-bandwidth DRAM channel, the banked
// last-level caches with the wide-access response counter of §3.4, and the
// per-tile scratchpads with the frame counters of §3.3.
package mem

import (
	"fmt"
	"math/bits"
	"slices"

	"rockcress/internal/pool"
)

// Global is the word-addressed backing store behind the LLCs. The harness
// initializes benchmark inputs here and reads results back after the LLCs
// are flushed.
//
// Out-of-range and unaligned accesses latch an error (surfaced through the
// machine's component check) instead of panicking: a wild address computed
// by a simulated program is a simulation failure, not a simulator bug.
//
// Stores are pooled: a default-sized store is 32 MiB of zeroed memory, and
// sweep-style runs build one machine per configuration, so allocating fresh
// costs more in memclr than the run itself touches. Every write marks a
// page-granular dirty bit; Recycle scrubs only dirty pages and parks the
// store for the next NewGlobal of the same size.
type Global struct {
	store
	err error
}

// store is a Global's construction memory, what Recycle parks.
type store struct {
	words []uint32
	dirty []uint64 // one bit per pageWords-word page, set on any write
}

// pageWords is the dirty-tracking granule (4 KiB pages).
const pageWords = 1024

// stores parks recycled stores by word count; a sweep's jobs build and
// recycle them on concurrent goroutines.
var stores pool.Pool[int, store]

// NewGlobal allocates a backing store of the given byte size, reusing a
// recycled store of the same size when one is available. The size is user
// input (benchmark image size, -mem style knobs), so a bad value is a
// validated configuration error, not a panic.
func NewGlobal(bytes int) (*Global, error) {
	if bytes%4 != 0 || bytes <= 0 {
		return nil, fmt.Errorf("mem: global size %d must be a positive word multiple", bytes)
	}
	nw := bytes / 4
	st, ok := stores.Get(nw)
	if !ok {
		pages := (nw + pageWords - 1) / pageWords
		st = store{words: make([]uint32, nw), dirty: make([]uint64, (pages+63)/64)}
	}
	return &Global{store: st}, nil
}

// Recycle zeroes the store's dirty pages and parks the store for the next
// NewGlobal of the same size. The caller must be completely done with g:
// Recycle drops g's hold on the store, so a second call does nothing and a
// later access fails as one beyond a zero-byte store.
func (g *Global) Recycle() {
	if g.words == nil {
		return
	}
	g.scrub()
	stores.Put(len(g.words), g.store)
	g.store, g.err = store{}, nil
}

// scrub zeroes every dirty page and clears the dirty bitmap, leaving the
// store all zero: the dirty bits cover every non-zero word.
func (g *Global) scrub() {
	for wi, bm := range g.dirty {
		for ; bm != 0; bm &= bm - 1 {
			lo, hi := g.pageSpan(wi*64 + bits.TrailingZeros64(bm))
			clear(g.words[lo:hi])
		}
		g.dirty[wi] = 0
	}
}

// pageSpan returns the word range [lo, hi) of a page; the last page of a
// store whose size is not a page multiple is short.
func (g *Global) pageSpan(page int) (lo, hi int) {
	lo = page * pageWords
	return lo, min(lo+pageWords, len(g.words))
}

// markDirty records that words [lo, hi) were written.
func (g *Global) markDirty(lo, hi int) {
	if hi <= lo {
		return
	}
	for p := lo / pageWords; p <= (hi-1)/pageWords; p++ {
		g.dirty[p/64] |= 1 << (p % 64)
	}
}

// Size returns the store's capacity in bytes.
func (g *Global) Size() int { return len(g.words) * 4 }

// Err returns the first invalid access observed, if any.
func (g *Global) Err() error { return g.err }

func (g *Global) fail(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf("mem: %s", fmt.Sprintf(format, args...))
	}
}

func (g *Global) check(addr uint32) bool {
	if addr%4 != 0 {
		g.fail("unaligned global access at %#x", addr)
		return false
	}
	if int(addr/4) >= len(g.words) {
		g.fail("global access at %#x beyond %d bytes", addr, g.Size())
		return false
	}
	return true
}

// ReadWord returns the word at byte address addr (zero on a bad address,
// with the error latched).
func (g *Global) ReadWord(addr uint32) uint32 {
	if !g.check(addr) {
		return 0
	}
	return g.words[addr/4]
}

// WriteWord stores v at byte address addr.
func (g *Global) WriteWord(addr uint32, v uint32) {
	if !g.check(addr) {
		return
	}
	g.words[addr/4] = v
	g.dirty[int(addr/4)/pageWords/64] |= 1 << (int(addr/4) / pageWords % 64)
}

// Image is a sparse copy of a Global: the pages written since the store was
// handed out, which is every page that can differ from zero. Taking,
// restoring and later recycling one cost O(dirty pages), not O(store size).
type Image struct {
	imageShape             // the pool shape it was taken as and parks as
	pages      []imagePage // ascending by page number
	data       []uint32    // slot s lives at data[s*pageWords : (s+1)*pageWords]
	parked     bool        // recycled: a second Recycle does nothing
}

// imageShape is an image's pool key: the word count of its store, and its
// page capacity, the power of two above the dirty pages of the snapshot
// that first took it. A snapshot takes an image of its own capacity class,
// so a small snapshot never takes the image a large one grew and leaves the
// large one a small image to grow again.
type imageShape struct{ nwords, class int }

// imagePage places one page's data in the image's slab.
type imagePage struct{ page, slot int32 }

// Size returns the byte size of the store the image was taken from.
func (im *Image) Size() int { return im.nwords * 4 }

// Pages returns how many pageWords-word pages the image holds.
func (im *Image) Pages() int { return len(im.pages) }

// Bytes returns the bytes of page data the image holds: what taking or
// restoring it copies.
func (im *Image) Bytes() int { return len(im.data) * 4 }

// slot returns the data of slab slot s.
func (im *Image) slot(s int32) []uint32 {
	return im.data[int(s)*pageWords : (int(s)+1)*pageWords]
}

// page returns the data of a page, adding it (all zero, at the end of the
// slab) when the image does not hold it yet.
func (im *Image) page(p int32) []uint32 {
	i, ok := slices.BinarySearchFunc(im.pages, p, func(e imagePage, p int32) int { return int(e.page - p) })
	if !ok {
		im.pages = slices.Insert(im.pages, i, imagePage{page: p, slot: int32(len(im.pages))})
		im.data = append(im.data, make([]uint32, pageWords)...)
	}
	return im.slot(im.pages[i].slot)
}

// overlay writes src at word index lo, adding pages the image lacks. It
// reports false, writing nothing, when the range leaves the imaged store.
func (im *Image) overlay(lo int, src []uint32) bool {
	if lo < 0 || lo+len(src) > im.nwords {
		return false
	}
	for len(src) > 0 {
		n := copy(im.page(int32(lo / pageWords))[lo%pageWords:], src)
		lo, src = lo+n, src[n:]
	}
	return true
}

// images parks recycled images by shape.
var images pool.Pool[imageShape, *Image]

// Snapshot returns a copy of the store's dirty pages. The machine overlays
// dirty LLC lines on top of it to publish a consistent checkpoint image.
// The image is a recycled one of the same shape when one is parked; its
// capacity already holds the dirty pages, with room for overlaid ones.
func (g *Global) Snapshot() *Image {
	n := 0
	for _, bm := range g.dirty {
		n += bits.OnesCount64(bm)
	}
	shape := imageShape{nwords: len(g.words), class: 1 << bits.Len(uint(n))}
	im, ok := images.Get(shape)
	if !ok {
		im = &Image{imageShape: shape}
	}
	im.parked = false
	im.pages = slices.Grow(im.pages[:0], shape.class)
	im.data = slices.Grow(im.data[:0], shape.class*pageWords)[:n*pageWords]
	for wi, bm := range g.dirty {
		for ; bm != 0; bm &= bm - 1 {
			page, slot := wi*64+bits.TrailingZeros64(bm), int32(len(im.pages))
			lo, hi := g.pageSpan(page)
			dst := im.slot(slot)
			clear(dst[copy(dst, g.words[lo:hi]):]) // past a short last page
			im.pages = append(im.pages, imagePage{page: int32(page), slot: slot})
		}
	}
	return im
}

// Recycle empties the image and parks it for the next Snapshot of its
// shape. Nothing may read the image afterwards.
func (im *Image) Recycle() {
	if im.parked {
		return
	}
	im.pages, im.data, im.parked = im.pages[:0], im.data[:0], true
	images.Put(im.imageShape, im)
}

// Restore replaces the store's contents with an image taken from an
// identically sized store: pages the image lacks become zero, and exactly
// the image's pages end up dirty.
func (g *Global) Restore(im *Image) {
	if im.nwords != len(g.words) {
		g.fail("restore of %d words into %d-word store", im.nwords, len(g.words))
		return
	}
	g.scrub()
	for _, e := range im.pages {
		lo, hi := g.pageSpan(int(e.page))
		copy(g.words[lo:hi], im.slot(e.slot))
		g.dirty[e.page/64] |= 1 << (e.page % 64)
	}
}

// ReadLine copies the line at lineAddr into dst (len(dst) words).
func (g *Global) ReadLine(lineAddr uint32, dst []uint32) {
	if !g.check(lineAddr) {
		return
	}
	end := int(lineAddr/4) + len(dst)
	if end > len(g.words) {
		g.fail("line read at %#x runs past %d bytes", lineAddr, g.Size())
		return
	}
	copy(dst, g.words[lineAddr/4:end])
}

// WriteLine copies src into the line at lineAddr.
func (g *Global) WriteLine(lineAddr uint32, src []uint32) {
	if !g.check(lineAddr) {
		return
	}
	end := int(lineAddr/4) + len(src)
	if end > len(g.words) {
		g.fail("line write at %#x runs past %d bytes", lineAddr, g.Size())
		return
	}
	copy(g.words[lineAddr/4:end], src)
	g.markDirty(int(lineAddr/4), end)
}
