package machine

import (
	"fmt"
	"time"

	"rockcress/internal/trace"
)

// Observability glue: everything here runs only when a trace sink or profile
// is attached, reads counters without mutating simulated state, and executes
// on the serial run loop (sampling, profiling) or under the recorder's mutex
// (event emission from parallel shards) — so cycle counts stay bit-identical
// with tracing on or off, for any engine worker count.

// tidMachine is the trace thread id for machine-level events (barriers,
// checkpoints, fast-forwards): one past the last NoC node id.
func (m *Machine) tidMachine() int64 { return int64(m.space.Nodes()) }

// tidLLC is the trace thread id of LLC bank b (its NoC node id, so core
// tids 0..Cores-1 never collide).
func (m *Machine) tidLLC(bank int) int64 { return int64(m.space.LLCNode(bank)) }

// emitTraceMeta names the trace threads (Perfetto track labels).
func (m *Machine) emitTraceMeta() {
	for t := range m.cores {
		label := fmt.Sprintf("tile %d (%s)", t, trace.RoleNames[m.roleOf[t]])
		m.rec.Meta(int64(t), label)
	}
	for b := range m.llcs {
		m.rec.Meta(m.tidLLC(b), fmt.Sprintf("llc bank %d", b))
	}
	m.rec.Meta(m.tidMachine(), "machine")
}

// snapshotCum is the sampler's view of the counter spine: fresh totals
// folded into the window groups, plus the per-link hop vectors the meshes
// own. The sampler keeps the previous snapshot by value, so the link slices
// are copies, never aliases of the meshes' live counters.
func (m *Machine) snapshotCum() trace.Cum {
	m.collect()
	c := trace.Fold(m.Stats, m.roleOf)
	c.LinksReq = append([]int64(nil), m.meshReq.LinkHops()...)
	c.LinksResp = append([]int64(nil), m.meshResp.LinkHops()...)
	return c
}

// gauges reads the point-in-time values for the current window's end.
func (m *Machine) gauges() trace.Gauges {
	var g trace.Gauges
	for t, s := range m.spads {
		g.FramesOccupied += int64(s.FullFrames())
		if hw := int64(m.cores[t].InetHighWater()); hw > g.InetHighWater {
			g.InetHighWater = hw
		}
	}
	return g
}

// sample emits one telemetry window ending at the current cycle.
func (m *Machine) sample(final bool) {
	if m.sampler == nil {
		return
	}
	c := m.snapshotCum()
	if final {
		m.sampler.Finish(m.now, &c, m.gauges())
	} else {
		m.sampler.Record(m.now, &c, m.gauges())
	}
}

// stepOrSkip is one iteration of the run loop: fast-forward when the whole
// fabric is provably idle, step otherwise. With a profile attached it also
// meters the fast-forward probe (Ns covers every probe, Ticks counts taken
// skips; stage time is metered inside the engine).
func (m *Machine) stepOrSkip(limit int64) {
	if m.prof == nil {
		if !m.fastForward(limit) {
			m.step()
		}
		return
	}
	t0 := time.Now()
	skipped := m.fastForward(limit)
	m.prof.FastForward.Ns += int64(time.Since(t0))
	if skipped {
		m.prof.FastForward.Ticks++
	} else {
		m.step()
	}
}
