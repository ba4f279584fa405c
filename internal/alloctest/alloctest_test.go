package alloctest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

var sink []byte

// TestCountIsExact: Count and Bytes see exactly what f allocates, one
// record per allocation, and nothing when f allocates nothing.
func TestCountIsExact(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		if got := Count(func() {
			for range n {
				sink = make([]byte, 100)
			}
		}); got != int64(n) {
			t.Errorf("%d allocations counted as %d", n, got)
		}
	}
	if got := Bytes(func() { sink = make([]byte, 1000) }); got != 1024 {
		t.Errorf("a 1000-byte slice counted as %d bytes, want its 1024-byte size class", got)
	}
	// A pointer-free object under 16 bytes opens a tiny block: the first
	// one is always seen.
	if got := Count(func() { sink = make([]byte, 3) }); got != 1 {
		t.Errorf("one tiny allocation counted as %d", got)
	}
}

// TestCountIgnoresOtherGoroutines: while f runs, another goroutine
// allocates and the runtime loses and starts OS threads. The process's
// Mallocs count moves with all of it; Count sees only f's one allocation.
func TestCountIgnoresOtherGoroutines(t *testing.T) {
	start := make(chan struct{})
	var done atomic.Bool
	go func() {
		defer done.Store(true)
		<-start
		// A goroutine that exits with its thread locked takes the thread
		// with it; the parallel work after it needs another.
		exited := make(chan struct{})
		go func() {
			runtime.LockOSThread()
			close(exited)
		}()
		<-exited
		var wg sync.WaitGroup
		kept := make([][]byte, 4*runtime.GOMAXPROCS(0))
		for w := range kept {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 256)
				for i := range 1 << 16 {
					buf[i%len(buf)]++
				}
				kept[w] = buf
			}()
		}
		wg.Wait()
	}()
	var before, after runtime.MemStats
	got := Count(func() {
		runtime.ReadMemStats(&before)
		close(start)
		for !done.Load() { // a blocking receive could allocate a waiter
			runtime.Gosched()
		}
		sink = make([]byte, 100)
		runtime.ReadMemStats(&after)
	})
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("Mallocs moved by %d, Count says %d", mallocs, got)
	if got != 1 {
		t.Errorf("Count = %d, want f's one allocation", got)
	}
	if mallocs <= 1 {
		t.Errorf("Mallocs moved by %d: the other goroutine allocated nothing, the test exercised nothing", mallocs)
	}
}
