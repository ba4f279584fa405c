// Package metrics is the live observability plane: an allocation-free
// in-process registry of counters, gauges, and histograms backed by atomic
// cells, an HTTP introspection server (Prometheus text exposition,
// /debug/run, /debug/machine, net/http/pprof), and a flight recorder that
// keeps a bounded ring of recent telemetry windows and rare-event notes and
// dumps a forensic bundle to disk when a run dies badly.
//
// The contract with the simulator mirrors internal/trace: the plane only
// READS simulated state, never mutates it, so cycle counts are bit-identical
// with the plane attached or not. The hot-path
// contract mirrors PR 7's zero-alloc steady state: every metric cell is
// registered once at machine construction (allocation happens there), and
// steady-state updates are plain atomic loads/stores/adds on those
// pre-registered cells — the machine publishes counter snapshots into the
// cells on its serial run loop at watchdog-checkpoint granularity, so HTTP
// scrapes from other goroutines are race-free without any hot-path locking.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the exposition type of a metric family.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Cell is one atomic int64 metric value. Registration returns the cell once;
// after that, updates are single atomic operations — no map lookups, no
// string hashing, no allocation. A nil *Cell is safe to update (no-op), so
// producers need no "is the plane attached" branches.
type Cell struct {
	v atomic.Int64
}

// Add increments the cell (counters).
func (c *Cell) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Store publishes an absolute value (gauges, and the machine's counter
// publish sweep — counters scraped mid-run are monotone because the
// underlying simulator counters are).
func (c *Cell) Store(v int64) {
	if c != nil {
		c.v.Store(v)
	}
}

// Load reads the cell.
func (c *Cell) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Label is one name="value" pair on a series.
type Label struct {
	Key, Value string
}

// L builds a label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// series is one labeled instance inside a family.
type series struct {
	labels []Label
	cell   Cell
	hist   *histCells // histogram families only
}

type histCells struct {
	counts []Cell // one per bucket upper bound, plus +Inf
	sum    Cell   // float64 bits
}

// family is one named metric with a type, help text, and its series.
type family struct {
	name    string
	help    string
	kind    Kind
	buckets []float64 // histogram upper bounds (ascending, no +Inf)
	series  []*series
	byKey   map[string]*series
}

// Registry holds metric families. Registration (Counter/Gauge/Histogram) is
// get-or-create by name+labels and may allocate; it is meant for machine and
// harness construction time. Updates on the returned cells never touch the
// registry again.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(';')
	}
	return b.String()
}

func (r *Registry) lookup(name, help string, kind Kind, buckets []float64, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, buckets: buckets,
			byKey: map[string]*series{}}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	key := labelKey(labels)
	s := f.byKey[key]
	if s == nil {
		s = &series{labels: append([]Label(nil), labels...)}
		if kind == KindHistogram {
			s.hist = &histCells{counts: make([]Cell, len(buckets)+1)}
		}
		f.byKey[key] = s
		f.series = append(f.series, s)
	}
	return s
}

// Counter registers (or finds) a monotone counter series and returns its
// cell. Re-registering the same name+labels returns the existing cell, so a
// fault-ladder's second machine attempt publishes into the same series.
func (r *Registry) Counter(name, help string, labels ...Label) *Cell {
	if r == nil {
		return nil
	}
	return &r.lookup(name, help, KindCounter, nil, labels).cell
}

// Gauge registers (or finds) a point-in-time gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Cell {
	if r == nil {
		return nil
	}
	return &r.lookup(name, help, KindGauge, nil, labels).cell
}

// Histogram is an atomic-cell histogram: Observe is a bucket search plus two
// atomic adds and one CAS loop for the float sum — no allocation.
type Histogram struct {
	buckets []float64
	cells   *histCells
}

// Histogram registers (or finds) a histogram series with the given ascending
// upper bounds (+Inf is implicit). The first registration of a name fixes
// its buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	s := r.lookup(name, help, KindHistogram, buckets, labels)
	r.mu.Lock()
	b := r.byName[name].buckets
	r.mu.Unlock()
	return &Histogram{buckets: b, cells: s.hist}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.buckets, v) // first bound >= v
	h.cells.counts[i].Add(1)
	for {
		old := h.cells.sum.v.Load()
		next := int64(math.Float64bits(math.Float64frombits(uint64(old)) + v))
		if h.cells.sum.v.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.cells.counts {
		n += h.cells.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(uint64(h.cells.sum.Load()))
}

// promEscape escapes a label value per the Prometheus text format.
func promEscape(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

func writeLabels(b *strings.Builder, labels []Label, extra ...Label) {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(promEscape(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// WriteProm writes the registry in Prometheus text exposition format.
// Families appear in registration order, series in registration order within
// a family — both deterministic, so scrapes of identical machine states are
// byte-identical.
func (r *Registry) WriteProm(w io.Writer) error {
	if r == nil {
		return nil
	}
	// The whole text is built under the registration lock: lookup appends to
	// each family's series slice, so per-family snapshots would be needed
	// otherwise. Registration is rare and the build only loads atomic cells;
	// only the writer I/O happens outside the lock.
	r.mu.Lock()
	var b strings.Builder
	for _, f := range r.families {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, s := range f.series {
			switch f.kind {
			case KindHistogram:
				var cum int64
				for i := range s.hist.counts {
					cum += s.hist.counts[i].Load()
					le := "+Inf"
					if i < len(f.buckets) {
						le = formatFloat(f.buckets[i])
					}
					b.WriteString(f.name)
					b.WriteString("_bucket")
					writeLabels(&b, s.labels, L("le", le))
					fmt.Fprintf(&b, " %d\n", cum)
				}
				b.WriteString(f.name)
				b.WriteString("_sum")
				writeLabels(&b, s.labels)
				fmt.Fprintf(&b, " %s\n", formatFloat(math.Float64frombits(uint64(s.hist.sum.Load()))))
				b.WriteString(f.name)
				b.WriteString("_count")
				writeLabels(&b, s.labels)
				fmt.Fprintf(&b, " %d\n", cum)
			default:
				b.WriteString(f.name)
				writeLabels(&b, s.labels)
				fmt.Fprintf(&b, " %d\n", s.cell.Load())
			}
		}
	}
	r.mu.Unlock()
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}
