package trace

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"rockcress/internal/alloctest"
)

func TestRecorderRingOverwrite(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Instant(EvFaultKill, int64(i), 0)
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := r.Events()
	for i, e := range evs {
		if want := int64(6 + i); e.Ts != want {
			t.Fatalf("event %d Ts = %d, want %d (tail retained)", i, e.Ts, want)
		}
	}
}

// TestRingMemoryFollowsEvents: the ring is allocated a chunk at a time as
// events arrive, up to a capacity that need not be a whole number of chunks,
// and wrapping such a ring still keeps exactly the newest events in order.
func TestRingMemoryFollowsEvents(t *testing.T) {
	r := NewRecorder(DefaultEventCap)
	for i := 0; i < 10; i++ {
		r.Instant(EvFaultKill, int64(i), 0)
	}
	if len(r.chunks) != 1 {
		t.Fatalf("10 events hold %d chunks, want 1", len(r.chunks))
	}

	const capacity = chunkLen + 904
	r = NewRecorder(capacity)
	for i := 0; i < chunkLen; i++ {
		r.Instant(EvFaultKill, int64(i), 0)
	}
	if len(r.chunks) != 1 {
		t.Fatalf("%d events hold %d chunks, want 1", chunkLen, len(r.chunks))
	}
	const total = 3*capacity + 17
	for i := chunkLen; i < total; i++ {
		r.Span(EvFrameFill, int64(i), 1, 3, int64(i%7))
	}
	if held := len(r.chunks[0]) + len(r.chunks[1]); len(r.chunks) != 2 || held != capacity {
		t.Fatalf("full ring holds %d chunks of %d events, want 2 of %d", len(r.chunks), held, capacity)
	}
	evs := r.Events()
	if len(evs) != capacity || r.Dropped() != total-capacity {
		t.Fatalf("held %d dropped %d, want %d and %d", len(evs), r.Dropped(), capacity, total-capacity)
	}
	for i, e := range evs {
		if want := int64(total - capacity + i); e.Ts != want || e.Arg("slot") != want%7 {
			t.Fatalf("event %d = %+v, want ts %d slot %d", i, e, want, want%7)
		}
	}
}

// TestRecorderConcurrentEmit: goroutines sharing a recorder emit in
// parallel while the ring grows chunk by chunk and then wraps; no record
// may be lost or counted twice (run under -race in CI).
func TestRecorderConcurrentEmit(t *testing.T) {
	const shards, each = 4, 3000
	r := NewRecorder(chunkLen + 904)
	var wg sync.WaitGroup
	for g := 0; g < shards; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r.Meta(int64(g), "shard")
			for i := 0; i < each; i++ {
				r.Instant(EvVloadIssue, int64(i), int64(g), int64(i), 16)
			}
		}(g)
	}
	wg.Wait()
	if got := int64(r.Len()) + r.Dropped(); got != shards*(each+1) {
		t.Fatalf("Len+Dropped = %d, want %d", got, shards*(each+1))
	}
	last := [shards]int64{-1, -1, -1, -1}
	for _, e := range r.Events() {
		if e.Ts <= last[e.Tid] || e.Arg("addr") != e.Ts {
			t.Fatalf("shard %d: event %+v after ts %d (lost ordering or a torn write)", e.Tid, e, last[e.Tid])
		}
		last[e.Tid] = e.Ts
	}
}

// TestLabelsSurviveRingWrap: thread labels are the first thing a run emits,
// so a ring that holds them is a ring that overwrites them first. They live
// outside it: every label is still in the JSON after a wrap, a re-emitted
// label replaces the old one, and droppedEvents counts real events only.
func TestLabelsSurviveRingWrap(t *testing.T) {
	r := NewRecorder(8)
	for tid := int64(0); tid < 5; tid++ {
		r.Meta(tid, "tile "+string(rune('0'+tid)))
	}
	const emitted = 50
	for i := 0; i < emitted; i++ {
		r.Instant(EvVloadIssue, int64(i), int64(i%5), 64, 16)
	}
	if got := int64(r.Len()) + r.Dropped(); got != 5+emitted {
		t.Fatalf("Len+Dropped = %d, want %d (every record emitted)", got, 5+emitted)
	}
	r.Meta(3, "tile 3 (mimd)") // a later ladder attempt re-labels the tile
	if got := int64(r.Len()) + r.Dropped(); got != 5+emitted {
		t.Fatalf("Len+Dropped = %d after a re-label, want %d", got, 5+emitted)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData struct {
			DroppedEvents int64 `json:"droppedEvents"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.OtherData.DroppedEvents != emitted-8 {
		t.Errorf("droppedEvents = %d, want %d", doc.OtherData.DroppedEvents, emitted-8)
	}
	want := []string{"tile 0", "tile 1", "tile 2", "tile 3 (mimd)", "tile 4"}
	if len(doc.TraceEvents) != len(want)+8 {
		t.Fatalf("%d records written, want %d labels + 8 events", len(doc.TraceEvents), len(want))
	}
	for i, name := range want {
		e := doc.TraceEvents[i]
		if e.Name != "thread_name" || e.Tid != int64(i) || e.Args["name"] != name {
			t.Errorf("record %d = %+v, want the label %q of tid %d", i, e, name, i)
		}
	}
}

func TestRecorderWriteJSONShape(t *testing.T) {
	r := NewRecorder(16)
	r.Meta(3, "tile3")
	r.Span(EvFrameFill, 100, 25, 3, 1)
	r.Instant(EvFaultKill, 130, 3)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d events, want 3", len(doc.TraceEvents))
	}
	meta, span, inst := doc.TraceEvents[0], doc.TraceEvents[1], doc.TraceEvents[2]
	if meta["ph"] != "M" || meta["args"].(map[string]any)["name"] != "tile3" {
		t.Fatalf("bad metadata event: %v", meta)
	}
	if span["ph"] != "X" || span["dur"] != float64(25) || span["ts"] != float64(100) {
		t.Fatalf("bad span event: %v", span)
	}
	if span["args"].(map[string]any)["slot"] != float64(1) {
		t.Fatalf("span args lost: %v", span)
	}
	if inst["ph"] != "i" || inst["s"] != "t" {
		t.Fatalf("bad instant event: %v", inst)
	}
	if doc.OtherData["droppedEvents"] != float64(0) {
		t.Fatalf("bad droppedEvents: %v", doc.OtherData)
	}
}

// refEvent and refWriteJSON are the reflection encoder WriteJSON had before
// it streamed: the reference for the bytes of a trace document.
type refEvent struct {
	Name  string
	Cat   string
	Ph    byte
	Ts    int64
	Dur   int64
	Tid   int64
	Args  map[string]int64
	Label string
}

func refWriteJSON(w io.Writer, evs []refEvent, dropped int64, truncated bool) error {
	out := make([]map[string]any, 0, len(evs))
	for i := range evs {
		e := &evs[i]
		obj := map[string]any{
			"name": e.Name,
			"ph":   string(rune(e.Ph)),
			"ts":   e.Ts,
			"pid":  0,
			"tid":  e.Tid,
		}
		if e.Cat != "" {
			obj["cat"] = e.Cat
		}
		switch e.Ph {
		case 'X':
			obj["dur"] = e.Dur
		case 'i':
			obj["s"] = "t" // thread-scoped instant
		case 'M':
			obj["args"] = map[string]any{"name": e.Label}
		}
		if e.Args != nil {
			obj["args"] = e.Args
		}
		out = append(out, obj)
	}
	other := map[string]any{"droppedEvents": dropped}
	if truncated {
		other["truncated"] = true
	}
	doc := map[string]any{
		"traceEvents":     out,
		"displayTimeUnit": "ms",
		"otherData":       other,
	}
	return json.NewEncoder(w).Encode(doc)
}

// refEvents spells a snapshot the way the emit sites used to: one name,
// category and argument map per event, labels as 'M' events in front.
func refEvents(rows []KindInfo, s snapshot) []refEvent {
	var out []refEvent
	for _, l := range s.labels {
		out = append(out, refEvent{Name: "thread_name", Ph: 'M', Tid: l.Tid, Label: l.Name})
	}
	for _, e := range s.events {
		row := rows[e.Kind]
		re := refEvent{Name: row.Name, Cat: row.Cat, Ph: row.Ph, Ts: e.Ts, Dur: e.Dur, Tid: int64(e.Tid)}
		for i := len(row.Keys) - 1; i >= 0; i-- { // insertion order is not the sorted order
			if re.Args == nil {
				re.Args = map[string]int64{}
			}
			re.Args[row.Keys[i]] = e.Args[i]
		}
		out = append(out, re)
	}
	return out
}

// TestEncoderMatchesReflection holds the streaming encoder to the bytes
// encoding/json produced: over a synthetic vocabulary that covers both
// phases with zero to three arguments, an empty category and strings that
// need escaping, and over the real vocabulary through a wrapped Recorder.
func TestEncoderMatchesReflection(t *testing.T) {
	check := func(t *testing.T, rows []KindInfo, s snapshot) {
		t.Helper()
		var got, want bytes.Buffer
		if err := encode(&got, renderVocabulary(rows), s); err != nil {
			t.Fatal(err)
		}
		if err := refWriteJSON(&want, refEvents(rows, s), s.dropped, s.truncated); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			g, w := got.Bytes(), want.Bytes()
			i := 0
			for i < len(g) && i < len(w) && g[i] == w[i] {
				i++
			}
			t.Fatalf("%d bytes, want %d; first difference at byte %d:\n got  %.120q\n want %.120q",
				len(g), len(w), i, g[max(i-40, 0):], w[max(i-40, 0):])
		}
	}

	rows := []KindInfo{
		{"i0", "cat", PhInstant, nil},
		{"i1", "cat", PhInstant, []string{"a"}},
		{"i2", "", PhInstant, []string{"a", "b"}},
		{"i3", "cat", PhInstant, []string{"a", "b", "c"}},
		{"x0", "", PhSpan, nil},
		{"x1", "cat", PhSpan, []string{"a"}},
		{"x2", "cat", PhSpan, []string{"a_b", "b"}},
		{"x3", "", PhSpan, []string{"a", "b", "c"}},
		{`q"uo\te<é>`, "c&t", PhInstant, []string{"k\u2028"}},
	}
	labels := []label{
		{0, "tile 0 (lane)"},
		{81, `say "hi" \ <b>&é` + "\u2028\x01\xff"},
		{-1, ""},
	}
	rng := rand.New(rand.NewSource(14))
	pick := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return rng.Int63n(100)
		case 1:
			return -rng.Int63n(1 << 40)
		case 2:
			return []int64{0, math.MaxInt64, math.MinInt64}[rng.Intn(3)]
		}
		return rng.Int63()
	}
	// Enough events that the encoder flushes its buffer mid-stream.
	events := make([]Event, 5000)
	for i := range events {
		k := rng.Intn(len(rows))
		e := Event{Kind: Kind(k), Tid: int32(pick()), Ts: pick()}
		if rows[k].Ph == PhSpan {
			e.Dur = pick()
		}
		for a := range rows[k].Keys {
			e.Args[a] = pick()
		}
		events[i] = e
	}
	for _, s := range []snapshot{
		{},
		{labels: labels},
		{events: events[:1]},
		{labels: labels, events: events, dropped: 12345},
		{labels: labels[:1], events: events[:100], truncated: true},
		{events: events, dropped: 1, truncated: true},
	} {
		check(t, rows, s)
	}

	for _, truncated := range []bool{false, true} {
		r := NewRecorder(300)
		for tid := int64(0); tid < 81; tid++ {
			r.Meta(tid, labels[tid%3].Name)
		}
		for i := 0; i < 1000; i++ {
			k := Kind(rng.Intn(NumKinds))
			args := make([]int64, len(Vocabulary[k].Keys))
			for a := range args {
				args[a] = pick()
			}
			if Vocabulary[k].Ph == PhSpan {
				r.Span(k, pick(), pick(), int64(rng.Intn(81)), args...)
			} else {
				r.Instant(k, pick(), int64(rng.Intn(81)), args...)
			}
		}
		if truncated {
			r.MarkTruncated()
		}
		if r.Dropped() != 700 {
			t.Fatalf("dropped %d, want 700", r.Dropped())
		}
		check(t, Vocabulary[:], r.snapshot())
	}
}

// TestRecorderEmitZeroAllocs: on a ring that has its memory, an emit is a
// few words stored under a mutex — no allocation, whatever the arity.
func TestRecorderEmitZeroAllocs(t *testing.T) {
	r := NewRecorder(64)
	for i := 0; i < 64; i++ {
		r.Instant(EvFaultKill, int64(i), 0)
	}
	ts := int64(64)
	n := alloctest.Count(func() {
		ts++
		r.Instant(EvFaultKill, ts, 1)
		r.Instant(EvBarrierRelease, ts, 80, 7)
		r.Instant(EvVloadIssue, ts, 2, 4096, 16)
		r.Instant(EvLLCFanout, ts, 64, 4096, 2, 16)
		r.Span(EvFastForward, ts, 10, 80)
		r.Span(EvFrameFill, ts, 10, 3, 1)
		r.Span(EvFrameConsume, ts, 10, 3, 9, 1)
	})
	if n != 0 {
		t.Fatalf("emit allocates: %d allocs per 7 events", n)
	}
}

// TestVocabularyRows: names are unique and resolve back to their kind, and
// every row fits the flat event — at most MaxArgs keys, sorted, as the JSON
// carries them.
func TestVocabularyRows(t *testing.T) {
	for k, row := range Vocabulary {
		if row.Name == "" || (row.Ph != PhSpan && row.Ph != PhInstant) {
			t.Errorf("kind %d: incomplete row %+v", k, row)
		}
		if got, ok := KindOf(row.Name); !ok || got != Kind(k) {
			t.Errorf("KindOf(%q) = %d, %v; want %d (duplicate name?)", row.Name, got, ok, k)
		}
		if len(row.Keys) > MaxArgs || !sort.StringsAreSorted(row.Keys) {
			t.Errorf("%s: keys %v, want at most %d, sorted", row.Name, row.Keys, MaxArgs)
		}
	}
	if _, ok := KindOf("thread_name"); ok {
		t.Error("thread_name is a label record, not a vocabulary event")
	}
	if size := unsafe.Sizeof(Event{}); size > 64 {
		t.Errorf("Event is %d bytes, want at most 64", size)
	}
}

// refWindow builds the window [prevAt, now) as the sampler once did before
// handing it to encoding/json: maps for the roles and for the nonzero
// labelled links.
func refWindow(prevAt, now int64, prev, cur *Cum, g Gauges, final, truncated bool, labels []string) Window {
	w := Window{
		Start: prevAt, End: now, Final: final, Truncated: final && truncated,
		Roles:  map[string]RoleCounters{},
		Frames: cur.Frames.sub(prev.Frames),
		LLC:    cur.LLC.sub(prev.LLC),
		Dram:   cur.Dram.sub(prev.Dram),
		Noc:    cur.Noc.sub(prev.Noc),
		Engine: cur.Engine.sub(prev.Engine),

		FramesOccupied: g.FramesOccupied,
		InetHighWater:  g.InetHighWater,
	}
	for r := Role(0); r < NumRoles; r++ {
		w.Roles[RoleNames[r]] = cur.Roles[r].sub(prev.Roles[r])
	}
	if w.LLC.Accesses > 0 {
		w.LLCMissRate = float64(w.LLC.Misses) / float64(w.LLC.Accesses)
	}
	if span := now - prevAt; span > 0 {
		w.DramBusyFrac = float64(w.Dram.Busy) / float64(span)
	}
	links := func(cur, prev []int64) map[string]int64 {
		var out map[string]int64
		for i, v := range cur {
			var p int64
			if i < len(prev) {
				p = prev[i]
			}
			if d := v - p; d != 0 && i < len(labels) && labels[i] != "" {
				if out == nil {
					out = map[string]int64{}
				}
				out[labels[i]] = d
			}
		}
		return out
	}
	w.LinksReq, w.LinksResp = links(cur.LinksReq, prev.LinksReq), links(cur.LinksResp, prev.LinksResp)
	return w
}

// TestWindowEncoderMatchesReflection holds the window encoder to the bytes
// encoding/json makes of the same Window: over random counter pairs with
// small and huge deltas, links whose deltas are zero, nonzero or all zero
// (the field is then omitted), labels that sort differently from their index
// and need escaping, miss rates of 0, 1 and 1e-7, an empty-span final
// window, and final and truncated series.
func TestWindowEncoderMatchesReflection(t *testing.T) {
	labels := []string{"0>1", "", "9>10", "10>2", "2>1", "", `1<"2"&\` + "\b\f\x7f\u2029\xff", "é>1"}
	rng := rand.New(rand.NewSource(37))
	pick := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Int63n(100)
		case 2:
			return rng.Int63n(1 << 20)
		}
		return rng.Int63() >> rng.Intn(3) // large counts
	}
	grow := func(c *Cum) {
		vals := []*int64{
			&c.Frames.Consumed, &c.Frames.Poisons, &c.Frames.Replays, &c.Frames.Retries, &c.Frames.StaleDrops,
			&c.LLC.WideReqs, &c.LLC.RespWords, &c.LLC.Writebacks,
			&c.Dram.Reads, &c.Dram.Writes, &c.Dram.Busy,
			&c.Noc.FlitsReq, &c.Noc.HopsReq, &c.Noc.FlitsResp, &c.Noc.HopsResp,
			&c.Noc.Retrans, &c.Noc.Dropped, &c.Noc.Corrupt, &c.Noc.RemoteStores,
			&c.Engine.FastForwards, &c.Engine.SkippedCycles, &c.Engine.Checkpoints,
		}
		for r := range c.Roles {
			rc := &c.Roles[r]
			vals = append(vals, &rc.Issued, &rc.Frame, &rc.Inet, &rc.Backpressure, &rc.Other, &rc.Instrs)
		}
		for _, v := range vals {
			*v += pick()
		}
		switch acc := pick(); rng.Intn(4) {
		case 0: // miss rate 0
			c.LLC.Accesses += acc
		case 1: // miss rate 1
			c.LLC.Accesses += acc
			c.LLC.Misses += acc
		case 2: // miss rate 1e-7
			c.LLC.Accesses += 10_000_000
			c.LLC.Misses++
		default:
			c.LLC.Accesses += acc
			c.LLC.Misses += acc / (1 + rng.Int63n(9))
		}
		// Copies, as a machine's live vectors would be: the sampler keeps
		// its own.
		c.LinksReq, c.LinksResp = append([]int64(nil), c.LinksReq...), append([]int64(nil), c.LinksResp...)
		zero := rng.Intn(3) == 0 // a window in which no link moves
		for _, v := range [][]int64{c.LinksReq, c.LinksResp} {
			for i := range v {
				if !zero && rng.Intn(2) == 0 {
					v[i] += pick()
				}
			}
		}
	}

	for seq := 0; seq < 40; seq++ {
		var jsonl bytes.Buffer
		s := NewSampler(&jsonl, 100)
		s.SetLinkLabels(labels)
		s.Reset()
		var want []byte
		check := func(line []byte, prevAt, now int64, prev, cur *Cum, g Gauges, final bool) {
			t.Helper()
			ref, err := json.Marshal(refWindow(prevAt, now, prev, cur, g, final, seq%2 == 1, labels))
			if err != nil {
				t.Fatal(err)
			}
			ref = append(ref, '\n')
			if !bytes.Equal(line, ref) {
				t.Fatalf("sequence %d, window ending %d:\n got  %s\n want %s", seq, now, line, ref)
			}
			want = append(want, ref...)
		}
		var prev Cum
		if seq%3 != 0 { // else the machine keeps no per-link counts
			prev.LinksReq, prev.LinksResp = make([]int64, len(labels)), make([]int64, len(labels)-2)
		}
		prevAt := int64(0)
		for k := 0; k < 20; k++ {
			cur := prev
			grow(&cur)
			now := prevAt + 1 + rng.Int63n(300)
			g := Gauges{FramesOccupied: pick(), InetHighWater: pick()}
			check(s.Record(now, &cur, g), prevAt, now, &prev, &cur, g, false)
			prev, prevAt = cur, now
		}
		if seq%2 == 1 {
			s.MarkTruncated()
		}
		cur := prev
		grow(&cur)
		now := prevAt + int64(seq%4/2) // every other final window spans no cycles
		g := Gauges{InetHighWater: pick()}
		check(s.Finish(now, &cur, g), prevAt, now, &prev, &cur, g, true)
		if !bytes.Equal(jsonl.Bytes(), want) {
			t.Fatalf("sequence %d: the JSONL is not the lines Record and Finish returned", seq)
		}
	}
}

func TestSamplerWindowsConserve(t *testing.T) {
	var buf bytes.Buffer
	s := NewSampler(&buf, 100)
	s.Reset()

	cum := Cum{}
	total := Cum{}
	step := func(now int64, dLLCAcc, dMiss, dBusy int64) {
		cum.LLC.Accesses += dLLCAcc
		cum.LLC.Misses += dMiss
		cum.Dram.Busy += dBusy
		cum.Roles[RoleLane].Instrs += dLLCAcc * 2
		if s.Due(now) {
			s.Record(now, &cum, Gauges{FramesOccupied: 1})
		}
	}
	step(100, 10, 3, 40)
	step(200, 20, 5, 60)
	step(350, 7, 7, 100) // crossed two boundaries at once (fast-forward)
	step(360, 1, 0, 0)   // not due: inside current window
	s.Finish(400, &cum, Gauges{InetHighWater: 9})
	total = cum

	if !s.finished {
		t.Fatal("sampler not finished")
	}

	dec := json.NewDecoder(strings.NewReader(buf.String()))
	var sum Cum
	nWin := 0
	var lastEnd int64
	var sawFinal bool
	for dec.More() {
		var w Window
		if err := dec.Decode(&w); err != nil {
			t.Fatal(err)
		}
		if w.Start != lastEnd {
			t.Fatalf("window %d starts at %d, want %d (contiguous)", nWin, w.Start, lastEnd)
		}
		lastEnd = w.End
		sum.LLC.Accesses += w.LLC.Accesses
		sum.LLC.Misses += w.LLC.Misses
		sum.Dram.Busy += w.Dram.Busy
		sum.Roles[RoleLane].Instrs += w.Roles["lane"].Instrs
		sawFinal = w.Final
		nWin++
	}
	if nWin != 4 {
		t.Fatalf("got %d windows, want 4", nWin)
	}
	if !sawFinal {
		t.Fatal("last window not marked final")
	}
	if lastEnd != 400 {
		t.Fatalf("last window ends at %d, want 400", lastEnd)
	}
	if sum.LLC != total.LLC || sum.Dram != total.Dram ||
		sum.Roles[RoleLane] != total.Roles[RoleLane] {
		t.Fatalf("window deltas do not sum to totals:\n sum %+v\n tot %+v", sum, total)
	}
}

func TestSamplerResetRestartsSeries(t *testing.T) {
	var buf bytes.Buffer
	s := NewSampler(&buf, 50)
	s.Reset()
	cum := Cum{}
	cum.Noc.FlitsReq = 5
	s.Record(50, &cum, Gauges{})
	s.Finish(70, &cum, Gauges{})

	// Second attempt on the same sink: series restarts from zero.
	s.Reset()
	if s.Due(10) {
		t.Fatal("due immediately after reset")
	}
	cum2 := Cum{}
	cum2.Noc.FlitsReq = 3
	s.Record(50, &cum2, Gauges{})
	dec := json.NewDecoder(strings.NewReader(buf.String()))
	var wins []Window
	for dec.More() {
		var w Window
		if err := dec.Decode(&w); err != nil {
			t.Fatal(err)
		}
		wins = append(wins, w)
	}
	if len(wins) != 3 {
		t.Fatalf("got %d windows, want 3", len(wins))
	}
	last := wins[2]
	if last.Start != 0 || last.Noc.FlitsReq != 3 {
		t.Fatalf("post-reset window = %+v, want start 0 flits 3", last)
	}
}

func TestSamplerFinishEmptyEmitsNothing(t *testing.T) {
	var buf bytes.Buffer
	s := NewSampler(&buf, 100)
	s.Reset()
	s.Finish(0, &Cum{}, Gauges{})
	if buf.Len() != 0 {
		t.Fatalf("empty run emitted %q", buf.String())
	}
}

func TestSamplerLinkDeltas(t *testing.T) {
	var buf bytes.Buffer
	s := NewSampler(&buf, 100)
	s.Reset()
	s.SetLinkLabels([]string{"0>1", "", "1>0", "1>2"})
	cum := Cum{LinksReq: []int64{4, 9, 0, 2}}
	s.Record(100, &cum, Gauges{})
	cum2 := Cum{LinksReq: []int64{4, 9, 1, 5}}
	s.Record(200, &cum2, Gauges{})
	dec := json.NewDecoder(strings.NewReader(buf.String()))
	var w1, w2 Window
	if err := dec.Decode(&w1); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&w2); err != nil {
		t.Fatal(err)
	}
	if w1.LinksReq["0>1"] != 4 || w1.LinksReq["1>2"] != 2 {
		t.Fatalf("w1 links = %v", w1.LinksReq)
	}
	if _, ok := w1.LinksReq[""]; ok {
		t.Fatal("unlabeled link leaked into output")
	}
	if len(w2.LinksReq) != 2 || w2.LinksReq["1>0"] != 1 || w2.LinksReq["1>2"] != 3 {
		t.Fatalf("w2 links = %v (want delta, not cum)", w2.LinksReq)
	}
}

func TestNilSinkAccessors(t *testing.T) {
	var s *Sink
	if s.Sampler() != nil || s.Recorder() != nil {
		t.Fatal("nil sink accessors must return nil")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSinkCloseFlushesEvents(t *testing.T) {
	var ev bytes.Buffer
	s := NewSink(Config{EventsTo: &ev, EventCap: 8})
	s.Recorder().Instant(EvFaultKill, 1, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(ev.Bytes()) {
		t.Fatalf("invalid JSON: %q", ev.String())
	}
	before := ev.Len()
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if ev.Len() != before {
		t.Fatal("second Close re-flushed")
	}
}

// TestClosedSinkParksChunks: a closed sink hands its recorder's event
// chunks, cleared, to the next sink's recorder, so a second run recording
// as many events as the first allocates no chunk — including the short
// last chunk of a capacity that ends inside one.
func TestClosedSinkParksChunks(t *testing.T) {
	const capacity = 2*chunkLen + 100
	record := func(s *Sink) {
		for i := 0; i < capacity+50; i++ {
			s.Recorder().Instant(EvFaultKill, int64(i), 3)
		}
	}
	first := NewSink(Config{EventsTo: io.Discard, EventCap: capacity})
	record(first)
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	parked, ok := chunkPool.Get(chunkLen)
	if !ok || len(parked) != 3 {
		t.Fatalf("the first sink's Close parked %d chunks, want 3", len(parked))
	}
	for i, c := range parked {
		if len(c) != chunkLen || c[len(c)-1] != (Event{}) || c[0] != (Event{}) {
			t.Fatalf("parked chunk %d holds %d events, not cleared or not full-size", i, len(c))
		}
	}
	chunkPool.Put(chunkLen, parked)
	second := NewSink(Config{EventsTo: io.Discard, EventCap: capacity})
	if n := alloctest.Count(func() { record(second) }); n != 0 {
		t.Errorf("the second sink's run allocated %d times, want 0 (the first sink's chunks)", n)
	}
	rec := second.Recorder()
	if got := len(rec.chunks[0]) + len(rec.chunks[1]) + len(rec.chunks[2]); len(rec.chunks) != 3 || got != capacity {
		t.Fatalf("second ring holds %d chunks of %d events, want 3 of %d", len(rec.chunks), got, capacity)
	}
	for i, e := range rec.Events() {
		if want := int64(50 + i); e.Ts != want || e.Tid != 3 {
			t.Fatalf("event %d = %+v, want ts %d on tid 3: a parked chunk was not cleared or was misplaced", i, e, want)
		}
	}
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
}
