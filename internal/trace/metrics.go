package trace

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/hist"
)

// Key identifies one metric instance: a name plus the node / link /
// channel it is scoped to. Unused dimensions stay zero; by convention
// names are dotted ("link.pkts_sent", "mpi.barrier_ps").
type Key struct {
	Name string
	Node int // supernode or rank, 0 when unscoped
	Link int // external link id, 0 when unscoped
	Chan int // channel discriminator (e.g. destination), 0 when unscoped
}

func (k Key) String() string {
	s := k.Name
	if k.Node != 0 || k.Link != 0 || k.Chan != 0 {
		s += fmt.Sprintf("{node=%d,link=%d,chan=%d}", k.Node, k.Link, k.Chan)
	}
	return s
}

// Counter is a monotonically increasing count. Safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a point-in-time value. Safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Metrics is a registry of counters, gauges and histograms. Lookups
// take a mutex; the returned instruments update with atomics, so hold
// on to them on hot paths. Counters and gauges take concurrent writers;
// a histogram takes one writer at a time (hist.Hist's contract — the
// Collector observes under its lock).
type Metrics struct {
	mu         sync.Mutex
	counters   map[Key]*Counter
	gauges     map[Key]*Gauge
	histograms map[Key]*hist.Hist
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters:   make(map[Key]*Counter),
		gauges:     make(map[Key]*Gauge),
		histograms: make(map[Key]*hist.Hist),
	}
}

// Counter returns (creating if needed) the counter for k.
func (m *Metrics) Counter(k Key) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters[k]
	if c == nil {
		c = &Counter{}
		m.counters[k] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge for k.
func (m *Metrics) Gauge(k Key) *Gauge {
	m.mu.Lock()
	defer m.mu.Unlock()
	g := m.gauges[k]
	if g == nil {
		g = &Gauge{}
		m.gauges[k] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram for k.
func (m *Metrics) Histogram(k Key) *hist.Hist {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.histograms[k]
	if h == nil {
		h = &hist.Hist{}
		m.histograms[k] = h
	}
	return h
}

// Snapshot is a consistent copy of every metric in a registry at one
// instant.
type Snapshot struct {
	Counters   map[Key]uint64
	Gauges     map[Key]float64
	Histograms map[Key]hist.Snapshot
}

// NewSnapshot returns an empty snapshot ready to be filled.
func NewSnapshot() Snapshot {
	return Snapshot{
		Counters:   make(map[Key]uint64),
		Gauges:     make(map[Key]float64),
		Histograms: make(map[Key]hist.Snapshot),
	}
}

// Snapshot copies every registered metric out of the registry.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := NewSnapshot()
	for k, c := range m.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range m.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range m.histograms {
		s.Histograms[k] = h.Snapshot()
	}
	return s
}

// Merge folds other into s (other wins on key collisions).
func (s Snapshot) Merge(other Snapshot) {
	for k, v := range other.Counters {
		s.Counters[k] = v
	}
	for k, v := range other.Gauges {
		s.Gauges[k] = v
	}
	for k, v := range other.Histograms {
		s.Histograms[k] = v
	}
}

// Keys returns every counter key in deterministic order (for rendering).
func (s Snapshot) Keys() []Key {
	keys := make([]Key, 0, len(s.Counters))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Link != b.Link {
			return a.Link < b.Link
		}
		return a.Chan < b.Chan
	})
	return keys
}
