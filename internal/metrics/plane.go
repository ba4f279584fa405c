package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Plane bundles one process's observability surface: the metric registry,
// the run-status tracker behind /debug/run, the flight recorder, and the
// machine-snapshot provider behind /debug/machine. One Plane serves a whole
// sweep; machines bind to it one at a time (sweeps overlap wall-clock-wise,
// but only the first binder publishes per-tile series and feeds the flight
// recorder — the others still count through the run status, so aggregate
// progress is complete even when the heatmap and the flight rings track a
// single machine).
type Plane struct {
	reg    *Registry
	run    *RunStatus
	flight *Flight

	flightDir string
	onDump    func(path string)

	machineBound atomic.Bool
	provMu       sync.Mutex
	provider     func() *MachineSnap
}

// NewPlane creates a plane with an empty registry, a fresh run status, and a
// flight recorder. flightDir is where Dump writes bundles; empty disables
// dumping (the rings still fill, /debug/flight still serves them).
func NewPlane(flightDir string) *Plane {
	p := &Plane{
		reg:       NewRegistry(),
		flight:    NewFlight(),
		flightDir: flightDir,
	}
	p.run = newRunStatus(p.reg, p.flight)
	return p
}

// Registry returns the metric registry (nil-safe).
func (p *Plane) Registry() *Registry {
	if p == nil {
		return nil
	}
	return p.reg
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

// TryBindMachine claims the per-machine series slot. The first machine of a
// sweep wins and registers/publishes the per-tile, per-bank, and per-link
// series; later concurrent machines get false and publish only through the
// run status. ReleaseMachine frees the slot for the next construction.
func (p *Plane) TryBindMachine() bool {
	if p == nil {
		return false
	}
	return p.machineBound.CompareAndSwap(false, true)
}

// ReleaseMachine frees the machine slot. The snapshot provider stays
// installed so /debug/machine keeps serving the final state between runs.
func (p *Plane) ReleaseMachine() {
	if p != nil {
		p.machineBound.Store(false)
	}
}

// SetMachineProvider installs the closure behind /debug/machine and flight
// dumps. The machine installs one that reads only published atomic cells,
// so it is safe to call from any goroutine at any time.
func (p *Plane) SetMachineProvider(fn func() *MachineSnap) {
	if p == nil {
		return
	}
	p.provMu.Lock()
	p.provider = fn
	p.provMu.Unlock()
}

// MachineSnapshot returns the current machine heatmap, or nil if no machine
// has ever bound.
func (p *Plane) MachineSnapshot() *MachineSnap {
	if p == nil {
		return nil
	}
	p.provMu.Lock()
	fn := p.provider
	p.provMu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// DumpFlight writes a flight bundle (no-op without a flight dir) and
// notifies the OnDump callback.
func (p *Plane) DumpFlight(reason string, runErr error, tileState string) (string, error) {
	if p == nil || p.flightDir == "" {
		return "", nil
	}
	path, err := p.flight.Dump(p.flightDir, reason, runErr, tileState, p.MachineSnapshot())
	if err == nil && path != "" && p.onDump != nil {
		p.onDump(path)
	}
	return path, err
}

// MachineSnap is the /debug/machine payload and the machine half of a flight
// bundle: a per-tile stall/issue heatmap, per-link NoC hop counts, and the
// occupancy gauges, all read from published cells.
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

// RunStatus tracks sweep progress for /debug/run: planned/done/failed cell
// counts, the active cells with their ladder attempt, and the accumulated
// simulated cycles and wall time behind the simulated-MIPS meter. It
// registers its own series in the plane's registry so /metrics carries the
// same numbers.
type RunStatus struct {
	mu      sync.Mutex
	started time.Time
	active  map[int]*activeCell
	nextTok int

	flight *Flight // /debug/run reports its ring occupancy

	planned *Cell
	done    *Cell
	failed  *Cell
	running *Cell
	cycles  *Cell
	wallNs  *Cell
	cellDur *Histogram
}

type activeCell struct {
	Kernel  string
	Config  string
	Attempt int
	Since   time.Time
}

func newRunStatus(reg *Registry, flight *Flight) *RunStatus {
	return &RunStatus{
		started: time.Now(),
		active:  map[int]*activeCell{},
		flight:  flight,
		planned: reg.Gauge("rockcress_sweep_cells_planned", "Sweep cells planned (grows as figures enqueue work)."),
		done:    reg.Counter("rockcress_sweep_cells_done", "Sweep cells completed successfully."),
		failed:  reg.Counter("rockcress_sweep_cells_failed", "Sweep cells that ended in an error."),
		running: reg.Gauge("rockcress_sweep_cells_active", "Sweep cells currently simulating."),
		cycles:  reg.Counter("rockcress_sim_cycles", "Simulated cycles accumulated across all completed runs."),
		wallNs:  reg.Counter("rockcress_sim_wall_ns", "Host wall time spent inside machine.Run across all runs."),
		cellDur: reg.Histogram("rockcress_cell_wall_seconds",
			"Wall-clock duration of one sweep cell (one kernel x config simulation).",
			[]float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}),
	}
}

// AddPlanned grows the planned-cell gauge (called as sweeps enqueue jobs).
func (rs *RunStatus) AddPlanned(n int) {
	if rs == nil {
		return
	}
	rs.planned.Add(int64(n))
}

// Begin marks a cell active and returns a token for SetAttempt/End.
func (rs *RunStatus) Begin(kernel, config string) int {
	if rs == nil {
		return 0
	}
	rs.mu.Lock()
	rs.nextTok++
	tok := rs.nextTok
	rs.active[tok] = &activeCell{Kernel: kernel, Config: config, Attempt: 1, Since: time.Now()}
	rs.mu.Unlock()
	rs.running.Add(1)
	return tok
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
	c := rs.active[tok]
	delete(rs.active, tok)
	rs.mu.Unlock()
	if c == nil {
		return
	}
	rs.running.Add(-1)
	if err != nil {
		rs.failed.Add(1)
	} else {
		rs.done.Add(1)
	}
	rs.cellDur.Observe(time.Since(c.Since).Seconds())
}

// AddSim accumulates a finished run's simulated cycles and wall time.
func (rs *RunStatus) AddSim(cycles, wallNs int64) {
	if rs == nil {
		return
	}
	rs.cycles.Add(cycles)
	rs.wallNs.Add(wallNs)
}

// RunSnap is the /debug/run payload.
type RunSnap struct {
	State    string       `json:"state"` // idle | running
	ElapsedS float64      `json:"elapsed_s"`
	Sweep    SweepSnap    `json:"sweep"`
	Active   []ActiveSnap `json:"active,omitempty"`
	Sim      SimSnap      `json:"sim"`
	Flight   FlightCounts `json:"flight"`
}

// SweepSnap summarizes sweep progress.
type SweepSnap struct {
	Planned int64   `json:"planned"`
	Done    int64   `json:"done"`
	Failed  int64   `json:"failed"`
	EtaS    float64 `json:"eta_s,omitempty"`
}

// ActiveSnap is one in-flight cell.
type ActiveSnap struct {
	Kernel  string  `json:"kernel"`
	Config  string  `json:"config"`
	Attempt int     `json:"attempt"`
	ForS    float64 `json:"for_s"`
}

// SimSnap is the simulated-throughput meter.
type SimSnap struct {
	Cycles int64   `json:"cycles"`
	WallS  float64 `json:"wall_s"`
	Mips   float64 `json:"msim_cycles_per_s,omitempty"`
}

// FlightCounts reports the flight recorder's ring occupancy.
type FlightCounts struct {
	Windows int `json:"windows"`
	Notes   int `json:"notes"`
	Dumps   int `json:"dumps"`
}

// Snapshot builds the /debug/run view.
func (rs *RunStatus) Snapshot() RunSnap {
	if rs == nil {
		return RunSnap{State: "idle"}
	}
	rs.mu.Lock()
	actives := make([]ActiveSnap, 0, len(rs.active))
	for _, c := range rs.active {
		actives = append(actives, ActiveSnap{
			Kernel: c.Kernel, Config: c.Config, Attempt: c.Attempt,
			ForS: time.Since(c.Since).Seconds(),
		})
	}
	started := rs.started
	rs.mu.Unlock()
	sort.Slice(actives, func(i, j int) bool {
		if actives[i].Kernel != actives[j].Kernel {
			return actives[i].Kernel < actives[j].Kernel
		}
		return actives[i].Config < actives[j].Config
	})

	done := rs.done.Load()
	failed := rs.failed.Load()
	finished := done + failed
	// Planned lags Done when a figure enqueues lazily; clamp so the ETA and
	// progress fraction never go negative.
	planned := rs.planned.Load()
	if planned < finished+int64(len(actives)) {
		planned = finished + int64(len(actives))
	}
	elapsed := time.Since(started).Seconds()
	snap := RunSnap{
		State:    "idle",
		ElapsedS: elapsed,
		Sweep:    SweepSnap{Planned: planned, Done: done, Failed: failed},
		Active:   actives,
		Sim: SimSnap{
			Cycles: rs.cycles.Load(),
			WallS:  float64(rs.wallNs.Load()) / 1e9,
		},
	}
	if len(actives) > 0 {
		snap.State = "running"
	}
	if snap.Sim.WallS > 0 {
		snap.Sim.Mips = float64(snap.Sim.Cycles) / 1e6 / snap.Sim.WallS
	}
	if finished > 0 && planned > finished {
		snap.Sweep.EtaS = elapsed / float64(finished) * float64(planned-finished)
	}
	snap.Flight.Windows, snap.Flight.Notes, snap.Flight.Dumps = rs.flight.Counts()
	return snap
}
