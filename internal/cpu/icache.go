package cpu

import (
	"fmt"

	"rockcress/internal/pool"
)

// ICache models a tile's private instruction cache as a set-associative tag
// array. Misses pay a fixed refill penalty (the paper's gem5 model fetches
// over the NoC; we approximate the refill with a constant latency and keep
// the access/miss counts, which drive the energy model).
type ICache struct {
	sets      int
	ways      int
	lineBytes int
	tags      []uint32
	valid     []bool
	mru       []uint8      // last-used way per set (LRU for 2-way; approx beyond)
	slabs     *icacheSlabs // what RecycleICaches parks
}

// NewICaches builds n caches of the given geometry, their tag, valid and
// MRU arrays carved from one slab each. Sets must come out a power of two;
// the geometry is configuration input, so a bad shape is a validated error,
// not a panic.
func NewICaches(n, bytes, ways, lineBytes int) ([]ICache, error) {
	sets := bytes / (ways * lineBytes)
	if sets < 1 {
		sets = 1
	}
	if sets&(sets-1) != 0 {
		return nil, fmt.Errorf("cpu: icache sets %d must be a power of two (%d B, %d-way, %d B lines)",
			sets, bytes, ways, lineBytes)
	}
	s := takeICacheSlabs(icacheShape{caches: n, sets: sets, ways: ways})
	for i := range s.caches {
		s.caches[i] = ICache{
			sets: sets, ways: ways, lineBytes: lineBytes,
			tags:  part(s.tags, i, sets*ways),
			valid: part(s.valid, i, sets*ways),
			mru:   part(s.mru, i, sets),
			slabs: s,
		}
	}
	return s.caches, nil
}

// icacheShape is what sizes NewICaches' slabs.
type icacheShape struct{ caches, sets, ways int }

// icacheSlabs is one NewICaches call's construction memory: the caches and
// their arrays are pieces of these slabs.
type icacheSlabs struct {
	shape  icacheShape
	caches []ICache
	tags   []uint32
	valid  []bool
	mru    []uint8
}

var icachePool pool.Pool[icacheShape, *icacheSlabs]

// takeICacheSlabs takes a recycled slab set of shape k, or allocates one.
// Either way every slab is all zero.
func takeICacheSlabs(k icacheShape) *icacheSlabs {
	if s, ok := icachePool.Get(k); ok {
		return s
	}
	return &icacheSlabs{
		shape:  k,
		caches: make([]ICache, k.caches),
		tags:   make([]uint32, k.caches*k.sets*k.ways),
		valid:  make([]bool, k.caches*k.sets*k.ways),
		mru:    make([]uint8, k.caches*k.sets),
	}
}

// RecycleICaches clears the slabs NewICaches carved cs from and parks them
// for the next build of the same shape. Nothing may use cs afterwards, and
// only their owner may call it, once.
func RecycleICaches(cs []ICache) {
	if len(cs) == 0 {
		return
	}
	s := cs[0].slabs
	clear(s.caches)
	clear(s.tags)
	clear(s.valid)
	clear(s.mru)
	icachePool.Put(s.shape, s)
}

// part returns the i-th n-element piece of a slab, capped so an append
// cannot grow into the neighbouring piece.
func part[T any](slab []T, i, n int) []T {
	return slab[i*n : (i+1)*n : (i+1)*n]
}

// Access looks byteAddr up, filling on miss, and reports whether it hit.
func (c *ICache) Access(byteAddr uint32) bool {
	lineNum := byteAddr / uint32(c.lineBytes)
	set := int(lineNum) & (c.sets - 1)
	tag := lineNum
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.mru[set] = uint8(w)
			return true
		}
	}
	// Miss: fill, evicting a non-MRU way (true LRU for 2 ways).
	victim := -1
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = (int(c.mru[set]) + 1) % c.ways
	}
	c.valid[base+victim] = true
	c.tags[base+victim] = tag
	c.mru[set] = uint8(victim)
	return false
}
