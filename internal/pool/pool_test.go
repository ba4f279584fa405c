package pool

import (
	"sync"
	"testing"
)

// TestPoolKeepsPerShapeLastInFirstOut: a pool hands back the value parked
// last under the asked shape, never one of another shape, keeps at most
// PerShape per shape, and Drain empties it.
func TestPoolKeepsPerShapeLastInFirstOut(t *testing.T) {
	var p Pool[int, *int]
	vals := make([]int, PerShape+2)
	for i := range vals {
		p.Put(1, &vals[i])
	}
	if _, ok := p.Get(2); ok {
		t.Fatal("Get of an unparked shape returned a value")
	}
	for i := PerShape - 1; i >= 0; i-- {
		if v, ok := p.Get(1); !ok || v != &vals[i] {
			t.Fatalf("Get %d: got %p (%v), want %p", PerShape-i, v, ok, &vals[i])
		}
	}
	if _, ok := p.Get(1); ok {
		t.Fatalf("the pool kept more than PerShape (%d) values of one shape", PerShape)
	}
	p.Put(1, &vals[0])
	Drain()
	if _, ok := p.Get(1); ok {
		t.Fatal("Drain left a value parked")
	}
}

// TestPoolSharedAcrossGoroutines: a sweep's jobs build and recycle on
// concurrent goroutines, and no value is handed to two of them at once.
// Run under -race.
func TestPoolSharedAcrossGoroutines(t *testing.T) {
	var p Pool[int, *int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v, ok := p.Get(i % 3)
				if !ok {
					v = new(int)
				}
				if *v != 0 {
					t.Errorf("a value was handed out while another goroutine held it")
					return
				}
				*v = 1 // held
				*v = 0 // cleared before it is parked
				p.Put(i%3, v)
			}
		}()
	}
	wg.Wait()
}
