package cpu

import "fmt"

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
	mru       []uint8 // last-used way per set (LRU for 2-way; approx beyond)
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
	var (
		cs    = make([]ICache, n)
		tags  = make([]uint32, n*sets*ways)
		valid = make([]bool, n*sets*ways)
		mru   = make([]uint8, n*sets)
	)
	for i := range cs {
		cs[i] = ICache{
			sets: sets, ways: ways, lineBytes: lineBytes,
			tags:  part(tags, i, sets*ways),
			valid: part(valid, i, sets*ways),
			mru:   part(mru, i, sets),
		}
	}
	return cs, nil
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
