package machine

import "rockcress/internal/causal"

// Collect exposes collect to the external tests: it brings m.Stats up to
// date on a machine that is stepped or stopped rather than Run to the end.
func (m *Machine) Collect() { m.collect() }

// CausalTile exposes tile t's causal recorder to the external tests (nil
// when causal recording is off).
func (m *Machine) CausalTile(t int) *causal.TileRec {
	if m.causal == nil {
		return nil
	}
	return m.causal.Tile(t)
}

// EscalateReplay exposes the frame-replay ladder's last rung to the external
// tests: tile t's frame is given up on at the current cycle, as when its
// replay exhausts its retries. The machine must carry a fault plan.
func (m *Machine) EscalateReplay(t int) { m.faults.escalateReplay(m.now, t) }

// OpenJourneys counts the causal journeys still open in the recorder's
// slab.
func (m *Machine) OpenJourneys() int { return m.journeys.Live() }
