// Package pool parks construction slabs between machines. A sweep or a
// recovery ladder builds machine after machine of a few shapes; each
// constructor takes its slabs from a pool before it allocates, and a
// recycled machine hands them back, cleared, for the next build of the same
// shape.
//
// One lock serves every pool. It is taken only while a machine is built or
// recycled, or publishes a checkpoint image (once per armed barrier), never
// on the per-cycle path. Parked values survive garbage collection
// (a sync.Pool's do not), so a benchmark that collects before every pass
// still finds them.
package pool

import "sync"

// PerShape bounds how many values one pool keeps parked per shape: more
// than the machines of one shape a sweep's concurrent jobs hold at once.
const PerShape = 8

var (
	mu sync.Mutex
	// pools lists every pool that has parked a value, for Drain.
	pools []interface{ drain() }
)

// Pool parks values of type V by shape K. The zero Pool is empty and ready
// to use.
type Pool[K comparable, V any] struct {
	parked map[K][]V
}

// Get takes a parked value of shape k, reporting false when there is none.
func (p *Pool[K, V]) Get(k K) (v V, ok bool) {
	mu.Lock()
	defer mu.Unlock()
	list := p.parked[k]
	if len(list) == 0 {
		return v, false
	}
	v = list[len(list)-1]
	var zero V
	list[len(list)-1] = zero
	p.parked[k] = list[:len(list)-1]
	return v, true
}

// Put parks v as shape k, or drops it when PerShape values of that shape
// are parked already. v must be cleared first: the next Get of shape k
// hands it to an unrelated machine.
func (p *Pool[K, V]) Put(k K, v V) {
	mu.Lock()
	defer mu.Unlock()
	if p.parked == nil {
		p.parked = make(map[K][]V)
		pools = append(pools, p)
	}
	if list := p.parked[k]; len(list) < PerShape {
		p.parked[k] = append(list, v)
	}
}

func (p *Pool[K, V]) drain() { clear(p.parked) }

// Drain drops every parked value of every pool, so the next build of each
// shape allocates cold. Tests use it to hold a recycled build against a
// cold one.
func Drain() {
	mu.Lock()
	defer mu.Unlock()
	for _, p := range pools {
		p.drain()
	}
}
