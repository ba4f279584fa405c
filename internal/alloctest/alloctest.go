// Package alloctest counts the heap allocations a function makes, for the
// allocation gates in tests. Only _test.go files import it.
//
// testing.AllocsPerRun and runtime.MemStats count every allocation the
// process makes while the function runs: an OS thread the scheduler starts
// inside the window, a collection's workers, a parallel test. Count turns
// the memory profiler up to one record per allocation for the window, and
// counts only the records whose stack passes through its own call of f, so
// what the runtime or another goroutine allocates meanwhile drops out.
//
// One kind of allocation is seen only in part. The runtime packs
// pointer-free objects under 16 bytes into a shared 16-byte block and
// profiles only the allocation that opens a block. The collection that
// opens the window empties every block, so f's first such allocation is
// always counted and a gate of zero stays exact; later ones that share its
// block are not.
package alloctest

import (
	"reflect"
	"runtime"
	"sync"
)

// mu serializes the windows: the profile rate is process-wide.
var mu sync.Mutex

// Count returns the number of heap allocations f made.
func Count(f func()) int64 {
	n, _ := measure(f)
	return n
}

// Bytes returns the bytes f allocated on the heap.
func Bytes(f func()) int64 {
	_, b := measure(f)
	return b
}

// stack is one profile record's call stack, the profile's key for it.
type stack = [32]uintptr

// tally is one record's cumulative allocations.
type tally struct{ objects, bytes int64 }

func measure(f func()) (objects, bytes int64) {
	mu.Lock()
	defer mu.Unlock()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	// Publish every record made before the window, then collect once more:
	// that empties each P's tiny block, and nothing of the helper's own
	// runs between it and f.
	publish()
	before := profile()
	runtime.GC()
	call(f)
	publish()
	for stk, a := range profile() {
		if b := before[stk]; a != b && inWindow(&stk) {
			objects += a.objects - b.objects
			bytes += a.bytes - b.bytes
		}
	}
	return objects, bytes
}

// call is the frame every counted record's stack passes through.
//
//go:noinline
func call(f func()) { f() }

// callEntry is call's entry PC.
var callEntry = runtime.FuncForPC(reflect.ValueOf(call).Pointer()).Entry()

// inWindow reports whether stk passes through call. A stack deeper than a
// record holds loses its outermost frames, call's among them: such a record
// is counted, since it may be f's.
func inWindow(stk *stack) bool {
	for _, pc := range stk {
		if pc == 0 {
			return false
		}
		if fn := runtime.FuncForPC(pc - 1); fn != nil && fn.Entry() == callEntry {
			return true
		}
	}
	return true
}

// publish makes the profile cover every allocation made so far. A record
// is published by the collection after the one it was made in; two always
// include one that started after it.
func publish() {
	runtime.GC()
	runtime.GC()
}

// profile returns the published profile, keyed by stack.
func profile() map[stack]tally {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	out := make(map[stack]tally, n)
	for _, r := range recs[:n] {
		t := out[r.Stack0]
		t.objects += r.AllocObjects
		t.bytes += r.AllocBytes
		out[r.Stack0] = t
	}
	return out
}
