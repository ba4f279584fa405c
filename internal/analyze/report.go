// Package analyze interprets the simulator's telemetry: it renders one
// run's counters as a canonical machine-readable report, classifies the
// run's (and each telemetry window's) bottleneck with a top-down rule
// tree, attributes the cycle delta between two runs to counter
// categories, and mines the Perfetto event trace for vload-pipeline
// latencies and frame occupancy. Everything here is post-mortem: it only
// reads counters a finished run produced, so attaching report emission to
// a simulation cannot change a single cycle.
package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"rockcress/internal/causal"
	"rockcress/internal/config"
	"rockcress/internal/metrics"
	"rockcress/internal/stats"
	"rockcress/internal/trace"
)

// SchemaVersion is bumped whenever a Report field changes meaning or name.
// The golden round-trip test pins the serialized form of the current
// version; readers reject reports from a different schema.
const SchemaVersion = 1

// Meta identifies which simulation a report describes.
type Meta struct {
	Bench  string `json:"bench"`
	Config string `json:"config"`
	Scale  string `json:"scale,omitempty"`
	Mod    string `json:"mod,omitempty"` // hardware-sensitivity modifier, "" = default machine
}

// HWInfo records the machine parameters the classifier's saturation rules
// need (bandwidth ceilings, link counts); it is a subset of config.Manycore.
type HWInfo struct {
	Cores         int `json:"cores"`
	MeshWidth     int `json:"mesh_width"`
	MeshHeight    int `json:"mesh_height"`
	LLCBanks      int `json:"llc_banks"`
	LLCBytes      int `json:"llc_bytes"`
	CacheLine     int `json:"cache_line_bytes"`
	NetWidthWords int `json:"net_width_words"`
	DRAMBandwidth int `json:"dram_bandwidth"` // bytes per cycle
	DRAMLatency   int `json:"dram_latency"`
}

// LLCReport is the aggregate cache activity plus the derived miss ratio.
type LLCReport struct {
	trace.LLCCounters
	StoreHits   int64   `json:"store_hits"`
	StoreMisses int64   `json:"store_misses"`
	MissRate    float64 `json:"miss_rate"`
}

// DramReport is the DRAM channel activity plus its duty cycle.
type DramReport struct {
	trace.DramCounters
	BusyFrac float64 `json:"busy_frac"`
}

// NocReport is the mesh activity split by plane, plus the fault-retry
// protocol counters.
type NocReport struct {
	trace.NocCounters
	// HopsPerCycle is (req+resp hops) / cycles: average link-traversals
	// demanded per cycle across the whole fabric.
	HopsPerCycle float64 `json:"hops_per_cycle"`
	// HotReqHops/HotRespHops are the busiest single link's traversal
	// counts; HotLinkBusyFrac is the hotter of the two divided by cycles —
	// that link's duty cycle (a link moves at most one flit per cycle), the
	// mesh's analogue of the DRAM channel's busy fraction.
	HotReqHops      int64   `json:"hot_req_hops"`
	HotRespHops     int64   `json:"hot_resp_hops"`
	HotLinkBusyFrac float64 `json:"hot_link_busy_frac"`
}

// FaultReport is the injected-fault footprint (all zero on clean runs).
// The permanent-topology fields are omitempty so clean reports — and every
// report written before topology faults existed — keep byte-identical
// serialized forms under schema 1.
type FaultReport struct {
	SpadFlipsFrame int64 `json:"spad_flips_frame"`
	SpadFlipsData  int64 `json:"spad_flips_data"`

	// Permanent topology loss and the degradation work it forced.
	CutLinks        int64 `json:"cut_links,omitempty"`
	DeadRouters     int64 `json:"dead_routers,omitempty"`
	DeadBanks       int64 `json:"dead_banks,omitempty"`
	RouteRebuilds   int64 `json:"route_rebuilds,omitempty"`
	ReroutedFlits   int64 `json:"rerouted_flits,omitempty"`
	DetourHops      int64 `json:"detour_hops,omitempty"`
	DroppedDead     int64 `json:"dropped_dead,omitempty"`
	BankFailovers   int64 `json:"bank_failovers,omitempty"`
	DramDegradedOps int64 `json:"dram_degraded_ops,omitempty"`
}

// Report is the canonical per-run report.json. Counter groups reuse the
// telemetry sampler's types so the report, the JSONL windows, and the
// end-of-run stats all speak the same field names.
type Report struct {
	Schema int `json:"schema"`
	Meta

	Cycles int64 `json:"cycles"`
	Instrs int64 `json:"instrs"`

	// WallNs and SimMips record host-side performance: wall-clock nanoseconds
	// the simulation took and the simulated-MIPS rate (million simulated
	// cycles per host second). They are the report's ONLY nondeterministic
	// fields — omitempty keeps reports from runs without wall measurement
	// (and every pre-existing golden) byte-identical.
	WallNs  int64   `json:"wall_ns,omitempty"`
	SimMips float64 `json:"sim_mips,omitempty"`

	HW HWInfo `json:"hw"`

	// Roles maps role name -> summed CPI-stack cycles; RolePop maps role
	// name -> how many tiles hold that role (for per-core normalization).
	Roles   map[string]trace.RoleCounters `json:"roles"`
	RolePop map[string]int                `json:"role_pop"`

	Frames trace.FrameCounters  `json:"frames"`
	LLC    LLCReport            `json:"llc"`
	Dram   DramReport           `json:"dram"`
	Noc    NocReport            `json:"noc"`
	Engine trace.EngineCounters `json:"engine"`
	Faults FaultReport          `json:"faults"`

	Bottleneck Verdict `json:"bottleneck"`

	// CriticalPath is the causal profiler's output (-causal runs only):
	// per-resource critical-path buckets, slack table, and top intervals.
	// Omitted — keeping older reports byte-identical — when the run did not
	// record causally.
	CriticalPath *causal.Report `json:"critical_path,omitempty"`

	// Build identifies the simulator binary that produced the report (VCS
	// revision, go version, dirty flag). rockdoctor diff warns when the two
	// sides came from different revisions. Omitted when unavailable (tests,
	// non-VCS builds) so pre-existing goldens stay byte-identical.
	Build *metrics.BuildInfo `json:"build,omitempty"`
}

// New builds a report from a finished run's statistics. groups is the
// run's vector-group layout (nil or empty for pure-MIMD configurations);
// it determines the role map exactly as the machine's telemetry does.
func New(meta Meta, st *stats.Machine, groups []*config.Group, hw config.Manycore) *Report {
	r := &Report{
		Schema: SchemaVersion,
		Meta:   meta,
		Cycles: st.Cycles,
		Instrs: st.TotalInstrs(),
		WallNs: st.WallNs,
		HW: HWInfo{
			Cores: hw.Cores, MeshWidth: hw.MeshWidth, MeshHeight: hw.MeshHeight,
			LLCBanks: hw.LLCBanks, LLCBytes: hw.LLCBytes, CacheLine: hw.CacheLineBytes,
			NetWidthWords: hw.NetWidthWords,
			DRAMBandwidth: hw.DRAMBandwidth, DRAMLatency: hw.DRAMLatency,
		},
		Roles:   make(map[string]trace.RoleCounters, trace.NumRoles),
		RolePop: make(map[string]int, trace.NumRoles),
	}
	if st.WallNs > 0 {
		// Million simulated cycles per host second.
		r.SimMips = float64(st.Cycles) * 1e3 / float64(st.WallNs)
	}

	// Counter groups come from the same role map and fold the machine's
	// telemetry windows and metric cells read, so the three cannot disagree.
	roles := trace.Roles(len(st.Cores), groups)
	c := trace.Fold(st, roles)
	var pops [trace.NumRoles]int
	for _, role := range roles {
		pops[role]++
	}
	for role := trace.Role(0); role < trace.NumRoles; role++ {
		if pops[role] > 0 {
			r.Roles[trace.RoleNames[role]] = c.Roles[role]
			r.RolePop[trace.RoleNames[role]] = pops[role]
		}
	}
	r.Frames = c.Frames
	r.LLC = LLCReport{LLCCounters: c.LLC, StoreHits: c.LLCStoreHits,
		StoreMisses: c.LLCStoreMisses, MissRate: st.LLCMissRate()}
	r.Dram.DramCounters = c.Dram
	r.Noc.NocCounters = c.Noc
	r.Noc.HotReqHops = st.NocReqHotHops
	r.Noc.HotRespHops = st.NocRespHotHops
	if st.Cycles > 0 {
		r.Dram.BusyFrac = float64(st.DramBusy) / float64(st.Cycles)
		r.Noc.HopsPerCycle = float64(st.NocHops) / float64(st.Cycles)
		r.Noc.HotLinkBusyFrac = float64(max(st.NocReqHotHops, st.NocRespHotHops)) / float64(st.Cycles)
	}
	r.Engine = c.Engine

	r.Faults.SpadFlipsFrame = st.SpadFlipsFrame
	r.Faults.SpadFlipsData = st.SpadFlipsData
	r.Faults.CutLinks = st.CutLinks
	r.Faults.DeadRouters = st.DeadRouters
	r.Faults.DeadBanks = st.DeadBanks
	r.Faults.RouteRebuilds = st.NocRouteRebuilds
	r.Faults.ReroutedFlits = st.NocReroutedFlits
	r.Faults.DetourHops = st.NocDetourHops
	r.Faults.DroppedDead = st.NocDroppedDead
	r.Faults.BankFailovers = st.LLCBankFailovers
	r.Faults.DramDegradedOps = st.DramDegradedOps

	r.Bottleneck = Classify(r)
	return r
}

// PacingRole returns the role whose stall profile paces the run: the
// expander for vector configurations (the paper's Figure 13 methodology),
// MIMD cores otherwise, falling back to whichever role has cores.
func (r *Report) PacingRole() string {
	for _, name := range []string{
		trace.RoleNames[trace.RoleExpander],
		trace.RoleNames[trace.RoleMimd],
		trace.RoleNames[trace.RoleLane],
		trace.RoleNames[trace.RoleScalar],
	} {
		if r.RolePop[name] > 0 {
			return name
		}
	}
	return ""
}

// WriteFile serializes the report (indented, trailing newline) to path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	if err := r.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	return nil
}

// Write serializes the report to w.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return fmt.Errorf("analyze: encode report: %w", err)
	}
	return nil
}

// ReadReport parses one report.json and validates its schema version.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("analyze: %s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("analyze: %s: schema %d, this tool reads schema %d",
			path, r.Schema, SchemaVersion)
	}
	return &r, nil
}

// Name renders the report's identity for human output.
func (r *Report) Name() string {
	n := r.Bench + "/" + r.Config
	if r.Mod != "" {
		n += "+" + r.Mod
	}
	if r.Scale != "" {
		n += " (" + r.Scale + ")"
	}
	return n
}

// roleNamesSorted returns the report's role keys in canonical order
// (scalar, expander, lane, mimd — the trace package's order) so rendered
// output is deterministic.
func (r *Report) roleNamesSorted() []string {
	var out []string
	for role := trace.Role(0); role < trace.NumRoles; role++ {
		if _, ok := r.Roles[trace.RoleNames[role]]; ok {
			out = append(out, trace.RoleNames[role])
		}
	}
	// Defensive: include any unknown keys a future schema might add.
	var extra []string
	for k := range r.Roles {
		found := false
		for _, v := range out {
			if v == k {
				found = true
				break
			}
		}
		if !found {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}
