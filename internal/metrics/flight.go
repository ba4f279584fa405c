package metrics

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"rockcress/internal/trace"
)

// Flight is the flight recorder: a bounded ring of the most recent telemetry
// windows and a bounded ring of rare-event notes (fault injections, replay
// rungs, checkpoint publishes, reroutes, watchdog trips), plus the latest
// heatmap, all fed by the machine holding the plane's slot. When a run dies
// badly — watchdog trip, wall budget, contained crash — or the process gets
// SIGQUIT or SIGINT, Dump writes them as one forensic JSON bundle.
//
// Notes come only from serial, rare machine paths (the same sites that emit
// trace.Recorder events), never from the per-instruction hot path, so the
// recorder costs nothing in steady state. All methods are nil-safe and
// mutex-protected: the sampler feeds windows and the machine its heatmap
// from the run goroutine while a SIGQUIT handler may dump from another.
type Flight struct {
	mu      sync.Mutex
	windows []flightLine
	wHead   int
	wLen    int
	longest int // the longest line retained so far
	notes   []FlightNote
	nHead   int
	nLen    int
	run     string
	attempt int
	seq     int

	machine    MachineSnap // SetMachine's copy; its slices are reused
	hasMachine bool
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

// MachineSnap is the machine half of a flight bundle: a per-tile
// stall/issue heatmap, per-link NoC hop counts, and the occupancy gauges,
// as of the bound machine's last watchdog checkpoint.
type MachineSnap struct {
	Cycle          int64      `json:"cycle"`
	MeshW          int        `json:"mesh_w"`
	MeshH          int        `json:"mesh_h"`
	Tiles          []TileSnap `json:"tiles"`
	Links          []LinkSnap `json:"links,omitempty"`
	FramesOccupied int64      `json:"frames_occupied"`
	InetHighWater  int64      `json:"inet_high_water"`
}

// TileSnap is one tile's row in the heatmap.
type TileSnap struct {
	Tile         int    `json:"tile"`
	Role         string `json:"role"`
	Issued       int64  `json:"issued"`
	Frame        int64  `json:"stall_frame"`
	Inet         int64  `json:"stall_inet"`
	Backpressure int64  `json:"stall_backpressure"`
	Other        int64  `json:"stall_other"`
	Instrs       int64  `json:"instrs"`
}

// LinkSnap is one directed NoC link's cumulative hop count.
type LinkSnap struct {
	Plane string `json:"plane"`
	Link  string `json:"link"`
	Hops  int64  `json:"hops"`
}

// Bundle is the on-disk forensic dump format (see ReadBundle). Sweep is
// the plane's run status; bundles written before it existed read without.
type Bundle struct {
	Schema    int            `json:"schema"`
	Reason    string         `json:"reason"`
	WrittenAt time.Time      `json:"written_at"`
	Run       string         `json:"run,omitempty"`
	Attempt   int            `json:"attempt,omitempty"`
	Error     string         `json:"error,omitempty"`
	TileState string         `json:"tile_state,omitempty"`
	Sweep     *SweepSnap     `json:"sweep,omitempty"`
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
	f.longest = max(f.longest, len(line))
	if cap(w.line) < len(line) {
		// Twice the ring's longest line so far: lines vary with link
		// activity, and sizing to the longest rather than to this one
		// keeps a slot first filled by a short line (an idle start) from
		// regrowing as each later, longer line passes it.
		w.line = make([]byte, 0, 2*f.longest)
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

// SetMachine copies s, the bound machine's heatmap, into the buffer a
// bundle's machine half is read from. The copy reuses the buffer's slices,
// so once they have the machine's size it allocates nothing.
func (f *Flight) SetMachine(s *MachineSnap) {
	if f == nil {
		return
	}
	f.mu.Lock()
	tiles, links := f.machine.Tiles, f.machine.Links
	f.machine = *s
	f.machine.Tiles = append(tiles[:0], s.Tiles...)
	f.machine.Links = append(links[:0], s.Links...)
	f.hasMachine = true
	f.mu.Unlock()
}

// Counts reports how many windows and notes are currently retained.
func (f *Flight) Counts() (windows, notes int) {
	if f == nil {
		return 0, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.wLen, f.nLen
}

// snapshot copies the recorder into b: the rings oldest-first, decoding
// each retained line, the run tags, and the heatmap if a machine ever set
// one.
func (f *Flight) snapshot(b *Bundle) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	b.Windows = make([]FlightWindow, f.wLen)
	for i := range b.Windows {
		w := &f.windows[(f.wHead+i)%len(f.windows)]
		b.Windows[i].Run, b.Windows[i].Attempt = w.run, w.attempt
		if err := json.Unmarshal(w.line, &b.Windows[i].Window); err != nil {
			return fmt.Errorf("flight: window %d: %w", i, err)
		}
	}
	b.Notes = make([]FlightNote, 0, f.nLen)
	for i := 0; i < f.nLen; i++ {
		b.Notes = append(b.Notes, f.notes[(f.nHead+i)%len(f.notes)])
	}
	b.Run, b.Attempt = f.run, f.attempt
	if f.hasMachine {
		m := f.machine
		m.Tiles, m.Links = slices.Clone(m.Tiles), slices.Clone(m.Links)
		b.Machine = &m
	}
	return nil
}

// Dump writes a bundle into dir and returns its path. reason is a short
// slug ("watchdog", "wall_budget", "crash", "sigquit"); runErr and tileState
// give the error and diagnostic dump if the run died with one; sweep is the
// plane's run status, nil for none.
func (f *Flight) Dump(dir, reason string, runErr error, tileState string, sweep *SweepSnap) (string, error) {
	if f == nil || dir == "" {
		return "", nil
	}
	b := Bundle{
		Schema:    1,
		Reason:    reason,
		WrittenAt: time.Now().UTC(),
		TileState: tileState,
		Sweep:     sweep,
	}
	if err := f.snapshot(&b); err != nil {
		return "", err
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
