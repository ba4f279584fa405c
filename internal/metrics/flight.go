package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rockcress/internal/trace"
)

// Flight is the flight recorder: a bounded ring of the most recent telemetry
// windows (fed by the machine holding the plane's slot) plus a bounded ring of
// rare-event notes (fault injections, replay rungs, checkpoint publishes,
// reroutes, watchdog trips). When a run dies badly — watchdog trip, wall
// budget, contained crash, SIGQUIT — Dump writes the rings plus a machine
// snapshot as one forensic JSON bundle.
//
// Notes come only from serial, rare machine paths (the same sites that emit
// trace.Recorder events), never from the per-instruction hot path, so the
// recorder costs nothing in steady state. All methods are nil-safe and
// mutex-protected: the sampler feeds windows from the run goroutine while a
// SIGQUIT handler may dump from another.
type Flight struct {
	mu      sync.Mutex
	windows []flightLine
	wHead   int
	wLen    int
	notes   []FlightNote
	nHead   int
	nLen    int
	run     string
	attempt int
	dumps   int
	seq     int
}

// flightLine is one ring slot: a window's JSONL line, copied into a buffer
// the slot owns and reuses, and the run tags it was retained under.
type flightLine struct {
	run     string
	attempt int
	line    []byte
}

// FlightWindow is one retained telemetry window, tagged with the run it came
// from so successive cells of a sweep stay attributable. The ring keeps
// the sampler's line; a snapshot decodes it into this form.
type FlightWindow struct {
	Run     string       `json:"run,omitempty"`
	Attempt int          `json:"attempt,omitempty"`
	Window  trace.Window `json:"window"`
}

// FlightNote is one rare-event record.
type FlightNote struct {
	Cycle   int64  `json:"cycle"`
	Kind    string `json:"kind"`
	Detail  string `json:"detail,omitempty"`
	Run     string `json:"run,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
}

// Bundle is the on-disk forensic dump format (see ReadBundle).
type Bundle struct {
	Schema    int            `json:"schema"`
	Reason    string         `json:"reason"`
	WrittenAt time.Time      `json:"written_at"`
	Run       string         `json:"run,omitempty"`
	Attempt   int            `json:"attempt,omitempty"`
	Error     string         `json:"error,omitempty"`
	TileState string         `json:"tile_state,omitempty"`
	Machine   *MachineSnap   `json:"machine,omitempty"`
	Windows   []FlightWindow `json:"windows"`
	Notes     []FlightNote   `json:"notes"`
}

const (
	defaultWindowCap = 64
	defaultNoteCap   = 256
)

// NewFlight creates a flight recorder with the default ring capacities.
func NewFlight() *Flight {
	return &Flight{
		windows: make([]flightLine, defaultWindowCap),
		notes:   make([]FlightNote, defaultNoteCap),
	}
}

// SetRun tags subsequently retained windows and notes, and the header of a
// dumped bundle, with a run key (e.g. "gemm/V4") and ladder attempt number.
// Everything in the rings comes from the one machine holding the plane's
// slot, so whoever builds that machine sets the key: the key follows the
// slot, not the cell that began last.
func (f *Flight) SetRun(run string, attempt int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.run, f.attempt = run, attempt
	f.mu.Unlock()
}

// Retain keeps one telemetry window — the JSON line trace.Sampler wrote
// for it — tagged with the current run. The line is copied: the sampler
// reuses its buffer for the next window.
func (f *Flight) Retain(line []byte) {
	if f == nil {
		return
	}
	f.mu.Lock()
	i := (f.wHead + f.wLen) % len(f.windows)
	w := &f.windows[i]
	if cap(w.line) < len(line) {
		// Twice the line: lines vary with link activity, and the slack
		// lets a slot stop growing once they settle.
		w.line = make([]byte, 0, 2*len(line))
	}
	w.run, w.attempt, w.line = f.run, f.attempt, append(w.line[:0], line...)
	if f.wLen < len(f.windows) {
		f.wLen++
	} else {
		f.wHead = (f.wHead + 1) % len(f.windows)
	}
	f.mu.Unlock()
}

// Note records one rare event at a simulated cycle.
func (f *Flight) Note(cycle int64, kind, detail string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	i := (f.nHead + f.nLen) % len(f.notes)
	f.notes[i] = FlightNote{Cycle: cycle, Kind: kind, Detail: detail,
		Run: f.run, Attempt: f.attempt}
	if f.nLen < len(f.notes) {
		f.nLen++
	} else {
		f.nHead = (f.nHead + 1) % len(f.notes)
	}
	f.mu.Unlock()
}

// Counts reports how many windows and notes are currently retained and how
// many bundles have been dumped.
func (f *Flight) Counts() (windows, notes, dumps int) {
	if f == nil {
		return 0, 0, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.wLen, f.nLen, f.dumps
}

// snapshot copies the rings oldest-first, decoding each retained line.
func (f *Flight) snapshot() (ws []FlightWindow, ns []FlightNote, run string, attempt int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ws = make([]FlightWindow, f.wLen)
	for i := range ws {
		w := &f.windows[(f.wHead+i)%len(f.windows)]
		ws[i].Run, ws[i].Attempt = w.run, w.attempt
		if err := json.Unmarshal(w.line, &ws[i].Window); err != nil {
			return nil, nil, "", 0, fmt.Errorf("flight: window %d: %w", i, err)
		}
	}
	ns = make([]FlightNote, 0, f.nLen)
	for i := 0; i < f.nLen; i++ {
		ns = append(ns, f.notes[(f.nHead+i)%len(f.notes)])
	}
	return ws, ns, f.run, f.attempt, nil
}

// Dump writes a bundle into dir and returns its path. reason is a short
// slug ("watchdog", "wall_budget", "crash", "sigquit"); runErr and tileState
// give the error and diagnostic dump if the run died with one; snap is the
// live machine heatmap if a machine is bound.
func (f *Flight) Dump(dir, reason string, runErr error, tileState string, snap *MachineSnap) (string, error) {
	if f == nil || dir == "" {
		return "", nil
	}
	ws, ns, run, attempt, err := f.snapshot()
	if err != nil {
		return "", err
	}
	b := Bundle{
		Schema:    1,
		Reason:    reason,
		WrittenAt: time.Now().UTC(),
		Run:       run,
		Attempt:   attempt,
		TileState: tileState,
		Machine:   snap,
		Windows:   ws,
		Notes:     ns,
	}
	if runErr != nil {
		b.Error = runErr.Error()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f.mu.Lock()
	f.seq++
	seq := f.seq
	f.mu.Unlock()
	name := fmt.Sprintf("flight-%s-%d-%03d.json", reason, time.Now().UnixMilli(), seq)
	path := filepath.Join(dir, name)
	data, err := json.MarshalIndent(&b, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	f.mu.Lock()
	f.dumps++
	f.mu.Unlock()
	return path, nil
}

// ReadBundle loads a dumped flight bundle (rockdoctor's reader).
func ReadBundle(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: not a flight bundle: %w", path, err)
	}
	if b.Schema != 1 {
		return nil, fmt.Errorf("%s: unsupported flight bundle schema %d", path, b.Schema)
	}
	return &b, nil
}
