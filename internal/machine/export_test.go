package machine

// Collect exposes collect to the external tests: it brings m.Stats up to
// date on a machine that is stepped or stopped rather than Run to the end.
func (m *Machine) Collect() { m.collect() }
