package trace

import (
	"io"
	"sync"

	"rockcress/internal/pool"
)

// Event is one structured trace event: a vocabulary Kind plus numbers, 48
// bytes flat. Ts and Dur are in simulated cycles; the Chrome trace-event
// writer renders them as microseconds, so one Perfetto microsecond is one
// machine cycle. Args holds the values of Vocabulary[Kind].Keys, in order.
type Event struct {
	Kind Kind
	Tid  int32
	Ts   int64
	Dur  int64 // spans only
	Args [MaxArgs]int64
}

// Arg returns the value of argument key, or 0 when the event's kind has no
// such argument.
func (e *Event) Arg(key string) int64 {
	if i := e.Kind.ArgIndex(key); i >= 0 {
		return e.Args[i]
	}
	return 0
}

// label names one trace thread (a Perfetto track).
type label struct {
	Tid  int64
	Name string
}

// Ring memory is allocated one chunk at a time as events arrive, so a run
// pays for the events it holds, up to the capacity, not for the capacity.
const (
	chunkShift = 12
	chunkLen   = 1 << chunkShift // events per chunk: 192 KiB
	chunkMask  = chunkLen - 1
)

// chunkPool parks the event chunks of closed sinks' recorders, cleared,
// keyed by chunk length (min(chunkLen, capacity)): one parked value is one
// recorder's chunks, so a recorder built while one is parked fills those
// before it allocates. Every chunk is allocated full-size, so it can be
// parked; a ring whose capacity ends inside a chunk uses its last one short.
var chunkPool pool.Pool[int, [][]Event]

// Recorder is a bounded ring buffer of events plus the thread labels. A
// machine emits from the goroutine running it; the mutex (one per emit —
// tracing runs only) lets a caller share a recorder between goroutines, or
// read it, while a run emits. When the ring fills, the oldest events are
// overwritten and counted so the tail of a long run is always retained.
// Labels live outside the ring: they are never overwritten.
type Recorder struct {
	mu     sync.Mutex
	chunks [][]Event // chunk i holds ring positions [i*chunkLen, (i+1)*chunkLen)
	// parked is the chunk list NewRecorder took from chunkPool: chunks is
	// a prefix of it until the ring needs more chunks than it holds.
	parked    [][]Event
	capacity  int
	start     int // ring position of the oldest event; moves only once full
	n         int
	dropped   int64
	truncated bool
	labels    []label
}

// NewRecorder builds a recorder holding at most capacity events.
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 1
	}
	r := &Recorder{capacity: capacity}
	r.parked, _ = chunkPool.Get(r.chunkSize())
	r.chunks = r.parked[:0]
	return r
}

// chunkSize is the length of the recorder's full chunks, its pool key.
func (r *Recorder) chunkSize() int { return min(chunkLen, r.capacity) }

// addChunk extends the ring by a chunk of n events: the next parked one,
// or a new one. The caller holds r.mu.
func (r *Recorder) addChunk(n int) {
	if i := len(r.chunks); i < len(r.parked) {
		r.chunks = r.parked[:i+1] // the same backing array: parked sees the length too
		r.chunks[i] = r.chunks[i][:n]
		return
	}
	r.chunks = append(r.chunks, make([]Event, n, r.chunkSize()))
}

// release empties the ring and parks its chunks, cleared, for the next
// recorder; labels and counts stay. A later emit allocates afresh.
func (r *Recorder) release() {
	r.mu.Lock()
	defer r.mu.Unlock()
	list := r.chunks
	if len(r.parked) > len(list) {
		list = r.parked // chunks is a prefix of it: the rest are still clear
	}
	for i := range list {
		list[i] = list[i][:cap(list[i])]
		if i < len(r.chunks) {
			clear(list[i]) // the rest were never used
		}
	}
	if len(list) > 0 {
		chunkPool.Put(r.chunkSize(), list)
	}
	r.chunks, r.parked, r.start, r.n = nil, nil, 0, 0
}

// emit appends one event, overwriting the oldest when full. args must match
// the kind's vocabulary row: a mismatch is a bug at the emit site.
func (r *Recorder) emit(k Kind, ph byte, ts, dur, tid int64, args []int64) {
	if info := &Vocabulary[k]; info.Ph != ph || len(info.Keys) != len(args) {
		panic("trace: " + info.Name + " emitted with the wrong phase or argument count")
	}
	r.mu.Lock()
	pos := r.n
	if r.n == r.capacity {
		pos = r.start
		if r.start++; r.start == r.capacity {
			r.start = 0
		}
		r.dropped++
	} else {
		if pos>>chunkShift == len(r.chunks) {
			r.addChunk(min(chunkLen, r.capacity-pos))
		}
		r.n++
	}
	e := &r.chunks[pos>>chunkShift][pos&chunkMask]
	e.Kind, e.Tid, e.Ts, e.Dur = k, int32(tid), ts, dur
	e.Args = [MaxArgs]int64{}
	copy(e.Args[:], args)
	r.mu.Unlock()
}

// Span records a duration event [ts, ts+dur) on thread tid. args are the
// values of the kind's argument keys, in vocabulary order.
func (r *Recorder) Span(k Kind, ts, dur, tid int64, args ...int64) {
	r.emit(k, PhSpan, ts, dur, tid, args)
}

// Instant records a point event at ts on thread tid.
func (r *Recorder) Instant(k Kind, ts, tid int64, args ...int64) {
	r.emit(k, PhInstant, ts, 0, tid, args)
}

// Meta names thread tid in the trace viewer. Naming a tid again (a later
// attempt of a recovery ladder re-labels its tiles) replaces the name in
// place; that is an update, counted as neither a new event nor a drop.
func (r *Recorder) Meta(tid int64, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.labels {
		if r.labels[i].Tid == tid {
			r.labels[i].Name = name
			return
		}
	}
	r.labels = append(r.labels, label{Tid: tid, Name: name})
}

// Cap returns the most events the ring holds.
func (r *Recorder) Cap() int { return r.capacity }

// Len returns the number of records held: ring events plus labels. Len plus
// Dropped is the number of records emitted.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n + len(r.labels)
}

// Dropped returns how many events the ring overwrote.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// MarkTruncated flags the trace as the partial record of a run that did not
// complete (cancellation, wall-budget abort, simulation error). The flag is
// carried in the written JSON so readers can distinguish a clean trace from
// an interrupted one.
func (r *Recorder) MarkTruncated() {
	r.mu.Lock()
	r.truncated = true
	r.mu.Unlock()
}

// snapshot is a consistent copy of everything WriteJSON renders.
type snapshot struct {
	labels    []label
	events    []Event
	dropped   int64
	truncated bool
}

// snapshot copies the recorder's state under one lock acquisition, events
// in emission order.
func (r *Recorder) snapshot() snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := snapshot{
		labels:    append([]label(nil), r.labels...),
		events:    make([]Event, 0, r.n),
		dropped:   r.dropped,
		truncated: r.truncated,
	}
	r.runs(func(run []Event) { s.events = append(s.events, run...) })
	return s
}

// runs calls fn on the held events in emission order, as the few
// contiguous runs of chunk memory they lie in. The caller holds r.mu.
func (r *Recorder) runs(fn func([]Event)) {
	for i := 0; i < r.n; {
		pos := r.start + i
		if pos >= r.capacity {
			pos -= r.capacity
		}
		run := r.chunks[pos>>chunkShift][pos&chunkMask:] // a chunk ends at or before the capacity
		run = run[:min(len(run), r.n-i)]
		fn(run)
		i += len(run)
	}
}

// Events returns the buffered events in emission order.
func (r *Recorder) Events() []Event { return r.snapshot().events }

// WriteJSON emits the labels and the buffered events as Chrome trace-event
// JSON (the object form Perfetto and chrome://tracing both load), encoding
// the ring where it lies. It holds the recorder's lock while it writes, so
// emits wait until it returns and w must not call back into the recorder.
func (r *Recorder) WriteJSON(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := beginDoc(w, snapshot{labels: r.labels, dropped: r.dropped, truncated: r.truncated})
	r.runs(func(run []Event) { d.events(vocabJSON, run) })
	return d.end()
}
