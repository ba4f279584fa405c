package machine

import (
	"reflect"

	"rockcress/internal/causal"
)

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

// FailAfterBanks makes New fail with err once its meshes and banks are
// built, until the returned restore runs. Not for parallel tests.
func FailAfterBanks(err error) (restore func()) {
	failAfterBanks = err
	return func() { failAfterBanks = nil }
}

// SlabSets returns one address inside each construction slab set the
// machine holds — its store, both mesh planes, the LLC banks, the
// scratchpads, the cores and their I-caches — in that order. Two machines
// share a set exactly when they share its address.
func (m *Machine) SlabSets() []uintptr {
	field := func(v any, name string) uintptr { return reflect.ValueOf(v).Elem().FieldByName(name).Pointer() }
	return []uintptr{
		field(m.Global, "words"),
		field(m.meshReq, "queues"),
		field(m.meshResp, "queues"),
		reflect.ValueOf(m.llcs[0]).Pointer(),
		reflect.ValueOf(m.spads[0]).Pointer(),
		reflect.ValueOf(m.cores[0]).Pointer(),
		field(m.cores[0], "icache"),
	}
}

// PublishHeatmap copies the heatmap into the flight recorder now, as the
// run loop does at a watchdog checkpoint, for tests that Step rather than
// Run. A no-op on a machine that does not hold the plane's slot.
func (m *Machine) PublishHeatmap() {
	if m.obs != nil {
		m.collect()
		m.publish(m.read())
	}
}
