// Package monitor is the live half of the cluster's observability
// story. Where internal/trace collects events for post-mortem export,
// monitor introspects a *running* cluster the way APEnet+ exposes
// per-link status registers to its host: an HTTP endpoint serves
// Prometheus-format metrics scraped mid-run, a flight recorder keeps a
// bounded ring of recent snapshot-delta windows it can dump when
// something goes wrong, and a watchdog evaluates pluggable health rules
// against each window, raising typed alerts (dead link, credit-stall
// storm, ring-full burst, master-abort storm).
//
// Threading model: the simulation owns one goroutine; HTTP handlers run
// on others. All sampling — snapshot capture, delta computation,
// watchdog evaluation — happens inside the simulation loop via
// core.Cluster.SetSampleHook, so rules may reason about sim state with
// no cross-thread coordination and alert timing is deterministic in
// virtual time. The scrape path reads only atomically maintained
// counters (core.Cluster.Metrics is safe for concurrent use: the
// hardware counters are atomics and the collector registry is locked)
// plus mutex-guarded copies published by the sampler, so scraping never
// pauses the simulation.
package monitor

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
)

// DefaultSampleEvery is the default width of one sampling window in
// virtual time. 100 us is fine-grained enough that a multi-millisecond
// incident spans many windows, and coarse enough that snapshotting is
// far off any hot path.
const DefaultSampleEvery = 100 * sim.Microsecond

// Monitor ties the sampler, flight recorder, watchdog and HTTP server
// together.
type Monitor struct {
	cluster  *core.Cluster
	interval sim.Time
	autoDump string
	service  *serve.Service

	recorder *FlightRecorder
	watchdog *Watchdog

	mu         sync.Mutex
	lastSample sim.Time
	dumpErr    string
	samples    atomic.Uint64

	srv *httpServer
}

// Option customizes a Monitor.
type Option func(*Monitor)

// WithSampleEvery sets the virtual-time width of one sampling window.
func WithSampleEvery(d sim.Time) Option {
	return func(m *Monitor) {
		if d > 0 {
			m.interval = d
		}
	}
}

// WithRecorderWindows bounds the flight recorder to the most recent n
// windows.
func WithRecorderWindows(n int) Option {
	return func(m *Monitor) { m.recorder = NewFlightRecorder(n) }
}

// WithRules replaces the default watchdog rule set.
func WithRules(rules ...Rule) Option {
	return func(m *Monitor) { m.watchdog.SetRules(rules) }
}

// WithAlertCallback registers fn to run whenever an alert is raised or
// resolved. Callbacks run on the simulation goroutine inside the sample
// hook; keep them short and never touch the engine from them.
func WithAlertCallback(fn func(Alert)) Option {
	return func(m *Monitor) { m.watchdog.OnAlert(fn) }
}

// WithAutoDump makes every raised alert dump the flight recorder's
// pre-incident windows to path (overwriting earlier dumps, so the file
// always holds the windows leading into the most recent incident).
func WithAutoDump(path string) Option {
	return func(m *Monitor) { m.autoDump = path }
}

// SetService adds a deployed serving service's live snapshot to
// /metrics.json. Status reads it from the HTTP goroutine; serve's
// snapshots read single-writer atomics only, so that is safe while the
// simulation runs. A service is typically deployed after the cluster —
// and thus the monitor — is built, so this is a setter rather than an
// Option.
func (m *Monitor) SetService(s *serve.Service) {
	m.mu.Lock()
	m.service = s
	m.mu.Unlock()
}

// New builds a Monitor over c. Watchdog alerts go to c's tracer and
// /profile serves c's profiler. It does not listen anywhere until Serve
// is called, and does not sample until its OnSample is wired into the
// simulation loop (c.SetSampleHook(m.Interval(), m.OnSample)).
func New(c *core.Cluster, opts ...Option) *Monitor {
	m := &Monitor{
		cluster:  c,
		interval: DefaultSampleEvery,
		recorder: NewFlightRecorder(DefaultRecorderWindows),
		watchdog: NewWatchdog(DefaultRules()...),
	}
	m.watchdog.SetTracer(c.Tracer())
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Interval returns the sampling window width.
func (m *Monitor) Interval() sim.Time { return m.interval }

// Recorder returns the flight recorder.
func (m *Monitor) Recorder() *FlightRecorder { return m.recorder }

// Watchdog returns the alert watchdog.
func (m *Monitor) Watchdog() *Watchdog { return m.watchdog }

// OnSample ingests one sampling tick. It must be called from the
// simulation goroutine (core.Cluster.SetSampleHook does); it snapshots
// the cluster, closes a flight-recorder window, and runs the watchdog
// over it.
func (m *Monitor) OnSample(now sim.Time) {
	w := m.recorder.Record(now, m.cluster.Metrics(), m.cluster.LinkStatuses())
	raised := m.watchdog.Evaluate(w)
	m.mu.Lock()
	m.lastSample = now
	m.mu.Unlock()
	m.samples.Add(1)
	if len(raised) > 0 && m.autoDump != "" {
		if err := m.recorder.DumpFile(m.autoDump, "alert: "+raised[0].Message); err != nil {
			// An unwritable dump path must not kill the simulation;
			// surface it through the health endpoint instead.
			m.mu.Lock()
			m.dumpErr = err.Error()
			m.mu.Unlock()
		}
	}
}

// LastSample returns the virtual time of the most recent sample and how
// many samples have been taken.
func (m *Monitor) LastSample() (sim.Time, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastSample, m.samples.Load()
}

// ActiveAlerts returns currently unresolved alerts.
func (m *Monitor) ActiveAlerts() []Alert { return m.watchdog.Active() }

// Serve starts the HTTP endpoint on addr (host:port; :0 picks an
// ephemeral port — read it back with Addr).
func (m *Monitor) Serve(addr string) error {
	if m.srv != nil {
		return fmt.Errorf("monitor: already serving on %s", m.srv.addr())
	}
	srv, err := newHTTPServer(m, addr)
	if err != nil {
		return err
	}
	m.srv = srv
	return nil
}

// Addr returns the bound listen address, empty before Serve.
func (m *Monitor) Addr() string {
	if m.srv == nil {
		return ""
	}
	return m.srv.addr()
}

// Close stops the HTTP server if one is running.
func (m *Monitor) Close() error {
	if m.srv == nil {
		return nil
	}
	err := m.srv.close()
	m.srv = nil
	return err
}
