// Package metrics is the run's forensic surface: a flight recorder that
// keeps a bounded ring of recent telemetry windows, rare-event notes and the
// bound machine's heatmap, and dumps them as one JSON bundle when a run dies
// badly or the process gets SIGQUIT; the sweep's run status, which a bundle
// carries beside them; and the binary's build stamp.
//
// The contract with the simulator mirrors internal/trace: the plane only
// READS simulated state, never mutates it, so cycle counts are bit-identical
// with the plane attached or not. Its hot-path contract mirrors the
// simulator's zero-alloc steady state: the bound machine copies its heatmap
// into a buffer the recorder owns, on its serial run loop at
// watchdog-checkpoint granularity, and once that buffer has the machine's
// size the copy allocates nothing. A dump from another goroutine reads the
// buffer under the recorder's mutex.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Plane bundles one process's observability attachment: the run-status
// tracker, the flight recorder, and the machine slot. One Plane serves a
// whole sweep; machines bind to it one at a time (sweeps overlap
// wall-clock-wise, but only the first binder feeds the flight recorder its
// windows, notes and heatmap — the others still count through the run
// status, so aggregate progress is complete even when the recorder tracks a
// single machine).
type Plane struct {
	run    *RunStatus
	flight *Flight

	flightDir string
	onDump    func(path string)

	machineBound atomic.Bool
}

// NewPlane creates a plane with a fresh run status and flight recorder.
// flightDir is where DumpFlight writes bundles; empty disables dumping (the
// rings still fill).
func NewPlane(flightDir string) *Plane {
	return &Plane{run: newRunStatus(), flight: NewFlight(), flightDir: flightDir}
}

// Run returns the run-status tracker (nil-safe).
func (p *Plane) Run() *RunStatus {
	if p == nil {
		return nil
	}
	return p.run
}

// Flight returns the flight recorder (nil-safe).
func (p *Plane) Flight() *Flight {
	if p == nil {
		return nil
	}
	return p.flight
}

// FlightDir returns the bundle directory ("" = dumping disabled).
func (p *Plane) FlightDir() string {
	if p == nil {
		return ""
	}
	return p.flightDir
}

// OnDump registers a callback invoked with each written bundle path (the
// cmd layer uses it to print "flight bundle written: ..." to stderr).
func (p *Plane) OnDump(fn func(path string)) {
	if p != nil {
		p.onDump = fn
	}
}

// TryBindMachine claims the machine slot. The first machine of a sweep wins
// and feeds the flight recorder; later concurrent machines get false and
// report only through the run status. ReleaseMachine frees the slot for the
// next construction.
func (p *Plane) TryBindMachine() bool {
	if p == nil {
		return false
	}
	return p.machineBound.CompareAndSwap(false, true)
}

// ReleaseMachine frees the machine slot. The recorder keeps the last
// heatmap, so a bundle dumped between runs still carries its machine half.
func (p *Plane) ReleaseMachine() {
	if p != nil {
		p.machineBound.Store(false)
	}
}

// DumpFlight writes a flight bundle with the sweep's progress (no-op
// without a flight dir) and notifies the OnDump callback.
func (p *Plane) DumpFlight(reason string, runErr error, tileState string) (string, error) {
	if p == nil || p.flightDir == "" {
		return "", nil
	}
	path, err := p.flight.Dump(p.flightDir, reason, runErr, tileState, p.run.Snapshot())
	if err == nil && path != "" && p.onDump != nil {
		p.onDump(path)
	}
	return path, err
}

// RunStatus tracks sweep progress: planned/done/failed cell counts, the
// active cells with their ladder attempt, and the accumulated simulated
// cycles and wall time. A bundle carries its Snapshot as its sweep section.
type RunStatus struct {
	mu      sync.Mutex
	started time.Time
	active  map[int]*activeCell
	nextTok int

	planned, done, failed int64
	cycles, wallNs        int64
}

type activeCell struct {
	Kernel  string
	Config  string
	Attempt int
	Since   time.Time
}

func newRunStatus() *RunStatus {
	return &RunStatus{started: time.Now(), active: map[int]*activeCell{}}
}

// AddPlanned grows the planned-cell count (called as sweeps enqueue jobs).
func (rs *RunStatus) AddPlanned(n int) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.planned += int64(n)
	rs.mu.Unlock()
}

// Begin marks a cell active and returns a token for SetAttempt/End.
func (rs *RunStatus) Begin(kernel, config string) int {
	if rs == nil {
		return 0
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.nextTok++
	rs.active[rs.nextTok] = &activeCell{Kernel: kernel, Config: config, Attempt: 1, Since: time.Now()}
	return rs.nextTok
}

// SetAttempt records the fault ladder's attempt number for an active cell.
func (rs *RunStatus) SetAttempt(tok, attempt int) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	if c := rs.active[tok]; c != nil {
		c.Attempt = attempt
	}
	rs.mu.Unlock()
}

// End marks a cell finished.
func (rs *RunStatus) End(tok int, err error) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.active[tok] == nil {
		return
	}
	delete(rs.active, tok)
	if err != nil {
		rs.failed++
	} else {
		rs.done++
	}
}

// AddSim accumulates a finished run's simulated cycles and wall time.
func (rs *RunStatus) AddSim(cycles, wallNs int64) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	rs.cycles += cycles
	rs.wallNs += wallNs
	rs.mu.Unlock()
}

// SweepSnap is a bundle's sweep section: the run status at the dump.
type SweepSnap struct {
	Planned   int64        `json:"planned"`
	Done      int64        `json:"done"`
	Failed    int64        `json:"failed"`
	Active    []ActiveSnap `json:"active,omitempty"`
	SimCycles int64        `json:"sim_cycles"`
	SimWallS  float64      `json:"sim_wall_s"`
	ElapsedS  float64      `json:"elapsed_s"`
}

// ActiveSnap is one in-flight cell.
type ActiveSnap struct {
	Kernel  string  `json:"kernel"`
	Config  string  `json:"config"`
	Attempt int     `json:"attempt"`
	ForS    float64 `json:"for_s"`
}

// Snapshot copies the run status, active cells sorted by kernel and
// configuration. It is nil when no cell was ever planned or begun, so a
// bundle from a plane no sweep used has no sweep section.
func (rs *RunStatus) Snapshot() *SweepSnap {
	if rs == nil {
		return nil
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.planned == 0 && rs.nextTok == 0 {
		return nil
	}
	now := time.Now()
	s := &SweepSnap{Planned: rs.planned, Done: rs.done, Failed: rs.failed,
		SimCycles: rs.cycles, SimWallS: float64(rs.wallNs) / 1e9,
		ElapsedS: now.Sub(rs.started).Seconds()}
	for _, c := range rs.active {
		s.Active = append(s.Active, ActiveSnap{Kernel: c.Kernel, Config: c.Config,
			Attempt: c.Attempt, ForS: now.Sub(c.Since).Seconds()})
	}
	sort.Slice(s.Active, func(i, j int) bool {
		if s.Active[i].Kernel != s.Active[j].Kernel {
			return s.Active[i].Kernel < s.Active[j].Kernel
		}
		return s.Active[i].Config < s.Active[j].Config
	})
	return s
}
