// Package prof is the simulation profiler: packet-lifecycle latency
// attribution plus PDES runtime accounting, zero-cost when disabled.
//
// The paper's central artifact (TCCluster §VI) is a latency budget —
// how a remote store's 227 ns half-RTT decomposes into link
// serialization, northbridge routing and software overhead. This
// package reproduces that budget from a live run: the hardware models
// stamp pooled packets and records at phase boundaries and feed the
// durations into per-link / per-node histograms owned here, and the
// parallel executor reports its wall-time accounting (sim.ParallelStats)
// through the same handle. A run then emits the per-phase budget, a
// critical-path ranking of links, and the barrier/imbalance numbers
// that decide the next round of PDES work.
//
// Cost model: every instrumentation site holds a pre-resolved handle
// (*LinkProf or *NodeProf) and guards on nil — disabled profiling is
// one predictable branch per potential observation, the same contract
// trace.Tracer already honors. Enabled observations are plain atomic
// loads and stores into fixed arrays: no allocation, no locks, no
// read-modify-write. That relies on every histogram having exactly one
// writer goroutine — a node's models all execute on the node's
// partition engine, and a link keeps per-side histograms because a
// split link's two transmit paths run on different partitions — while
// snapshot readers (the /profile scrape, the summary) only load.
package prof

import (
	"sync/atomic"

	"repro/internal/hist"
	"repro/internal/sim"
)

// LinkPhase is one attribution bucket of a packet's life on an
// external TCCluster link.
type LinkPhase uint8

const (
	// LinkQueue is tx-queue wait: Send() to serialization start
	// (credit stalls and egress-server backlog).
	LinkQueue LinkPhase = iota
	// LinkRetry is CRC replay penalty paid before a successful
	// serialization (retraining/fault stalls).
	LinkRetry
	// LinkSer is wire serialization: WireLen at the trained width and
	// clock.
	LinkSer
	// LinkFlight is cable propagation.
	LinkFlight
	// NumLinkPhases sizes per-link phase arrays.
	NumLinkPhases
)

// String returns the budget label for the phase.
func (p LinkPhase) String() string {
	switch p {
	case LinkQueue:
		return "link.queue"
	case LinkRetry:
		return "link.retry"
	case LinkSer:
		return "link.ser"
	case LinkFlight:
		return "link.flight"
	}
	return "link.unknown"
}

// NodePhase is one attribution bucket of the node-internal pipeline.
type NodePhase uint8

const (
	// NodeNBXbar is northbridge crossbar wait plus service.
	NodeNBXbar NodePhase = iota
	// NodeNBHop is the fixed routing-hop latency per NB traversal.
	NodeNBHop
	// NodeNBBridge is the coherent/non-coherent IO-bridge crossing.
	NodeNBBridge
	// NodeMemService is memory-controller port wait, transfer and
	// access latency.
	NodeMemService
	// NodeCPUIssue is store-pipeline issue wait at the system request
	// queue.
	NodeCPUIssue
	// NodeWCFlush is write-combining buffer residency: first merge to
	// buffer free.
	NodeWCFlush
	// NodeMsgPoll is the message receiver's poll-to-delivery gap.
	NodeMsgPoll
	// NodeServe is a serving request's on-server residency: arrival to
	// response posted (service time plus egress ring stalls).
	NodeServe
	// NumNodePhases sizes per-node phase arrays.
	NumNodePhases
)

// String returns the budget label for the phase.
func (p NodePhase) String() string {
	switch p {
	case NodeNBXbar:
		return "nb.xbar"
	case NodeNBHop:
		return "nb.hop"
	case NodeNBBridge:
		return "nb.bridge"
	case NodeMemService:
		return "mem.service"
	case NodeCPUIssue:
		return "cpu.issue"
	case NodeWCFlush:
		return "cpu.wcflush"
	case NodeMsgPoll:
		return "msg.poll"
	case NodeServe:
		return "serve.request"
	}
	return "node.unknown"
}

// ps converts a phase duration for a histogram. Negative durations
// cannot arise from well-ordered stamps, but clamp to zero rather than
// wrap if one ever does.
func ps(d sim.Time) uint64 {
	if d < 0 {
		return 0
	}
	return uint64(d)
}

// LinkProf aggregates one external link's phase histograms. Each port
// side owns its own row: link phases are observed on the transmitting
// side's engine, and a partition-split link transmits from two
// goroutines, so per-side rows preserve the single-writer contract
// without locked read-modify-writes.
//
// Most observations on a healthy link are one dominant constant —
// cable flight always, serialization for the ubiquitous 64-byte
// posted write — so each phase also has a constant counter
// (SetConst/AddConst): two adjacent hot words instead of a ~500-byte
// histogram, which is what keeps the enabled-profiling cache footprint
// (and so its overhead) small. Phase merges the counted population
// back into the histogram snapshot.
type LinkProf struct {
	h      [2][NumLinkPhases]hist.Hist
	constN [2][NumLinkPhases]atomic.Uint64
	constD [NumLinkPhases]atomic.Int64
	// fastN counts packets whose whole lifecycle hit the constants:
	// zero queue wait, constant serialization, cable flight. One
	// counter increment covers three phases for the dominant packet
	// population (AddFast).
	fastN [2]atomic.Uint64
}

// SetConst records phase p's dominant constant duration, the value
// AddConst stands for. Called at attach time, before traffic flows.
func (lp *LinkProf) SetConst(p LinkPhase, d sim.Time) { lp.constD[p].Store(int64(d)) }

// AddConst counts one observation of phase p's constant duration on
// port side. Nil-safe.
func (lp *LinkProf) AddConst(side int, p LinkPhase) {
	if lp == nil {
		return
	}
	c := &lp.constN[side][p]
	c.Store(c.Load() + 1)
}

// AddFast counts one all-constant packet on port side: zero tx-queue
// wait, constant serialization and cable flight in a single increment.
// Nil-safe.
func (lp *LinkProf) AddFast(side int) {
	if lp == nil {
		return
	}
	c := &lp.fastN[side]
	c.Store(c.Load() + 1)
}

// Observe folds one phase duration in on behalf of port side (0 or 1).
// Nil-safe so call sites may hold a nil handle when profiling is off.
func (lp *LinkProf) Observe(side int, p LinkPhase, d sim.Time) {
	if lp == nil {
		return
	}
	lp.h[side][p].Observe(ps(d))
}

// Phase snapshots one phase histogram, merged across both sides, the
// constant-counter population and the phase's share of the all-constant
// fast packets.
func (lp *LinkProf) Phase(p LinkPhase) hist.Snapshot {
	s := lp.h[0][p].Snapshot()
	s.Merge(lp.h[1][p].Snapshot())
	n := lp.constN[0][p].Load() + lp.constN[1][p].Load()
	switch p {
	case LinkQueue, LinkSer, LinkFlight:
		n += lp.fastN[0].Load() + lp.fastN[1].Load()
	}
	d := sim.Time(lp.constD[p].Load())
	if p == LinkQueue {
		d = 0 // fast/const queue observations are exact zero waits
	}
	s.Merge(hist.Constant(n, ps(d)))
	return s
}

// NodeProf aggregates one node's pipeline-phase histograms, shared by
// the node's northbridges, memory controllers, cores and message
// receivers — all of which execute on the node's partition engine, so
// each histogram keeps a single writer. Like LinkProf, every phase
// also carries a constant counter for its dominant value (routing hop
// and bridge crossing always, uncontended crossbar/memory/issue passes
// in the common case): the instrumentation sites compare against the
// constant and fall back to the histogram only for the contended tail.
type NodeProf struct {
	h      [NumNodePhases]hist.Hist
	constN [NumNodePhases]atomic.Uint64
	constD [NumNodePhases]atomic.Int64
	// fastXbarN counts uncontended crossbar passes — constant crossbar
	// service plus one routing hop — in a single increment (AddFastXbar),
	// the dominant event on every forwarded packet.
	fastXbarN atomic.Uint64
}

// SetConst records phase p's dominant constant duration, the value
// AddConst stands for. Called at attach time, before traffic flows.
func (np *NodeProf) SetConst(p NodePhase, d sim.Time) { np.constD[p].Store(int64(d)) }

// AddConst counts one observation of phase p's constant duration.
// Nil-safe.
func (np *NodeProf) AddConst(p NodePhase) {
	if np == nil {
		return
	}
	c := &np.constN[p]
	c.Store(c.Load() + 1)
}

// AddFastXbar counts one uncontended crossbar pass: constant crossbar
// service plus one routing hop in a single increment. Nil-safe.
func (np *NodeProf) AddFastXbar() {
	if np == nil {
		return
	}
	c := &np.fastXbarN
	c.Store(c.Load() + 1)
}

// Observe folds one phase duration in. Nil-safe.
func (np *NodeProf) Observe(p NodePhase, d sim.Time) {
	if np == nil {
		return
	}
	np.h[p].Observe(ps(d))
}

// Phase snapshots one phase histogram, merged with the
// constant-counter population and, for the crossbar and hop phases,
// their share of the fused fast passes.
func (np *NodeProf) Phase(p NodePhase) hist.Snapshot {
	s := np.h[p].Snapshot()
	n := np.constN[p].Load()
	if p == NodeNBXbar || p == NodeNBHop {
		n += np.fastXbarN.Load()
	}
	s.Merge(hist.Constant(n, ps(sim.Time(np.constD[p].Load()))))
	return s
}

// Option configures a Profiler.
type Option func(*Profiler)

// WithSpans additionally emits Chrome-trace phase spans
// (trace.KindPhaseSpan) through the cluster's tracer, so tcctrace
// renders queue/serialization slices per link. Costs one trace
// emission per phase; off by default.
func WithSpans() Option {
	return func(p *Profiler) { p.spans = true }
}

// Profiler owns a cluster's phase histograms and, for parallel runs,
// the executor's runtime accounting. The zero value is unusable; build
// with New and size with Init once the cluster's shape is known.
type Profiler struct {
	spans  bool
	links  []LinkProf
	nodes  []NodeProf
	pstats *sim.ParallelStats
}

// New builds an empty profiler.
func New(opts ...Option) *Profiler {
	p := &Profiler{}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Init sizes the per-link and per-node tables. Called once by the
// cluster builder before instrumentation handles are handed out.
func (p *Profiler) Init(links, nodes int) {
	p.links = make([]LinkProf, links)
	p.nodes = make([]NodeProf, nodes)
}

// Spans reports whether phase spans should be traced.
func (p *Profiler) Spans() bool { return p != nil && p.spans }

// Link returns external link i's handle, or nil when the profiler is
// nil or i is out of range.
func (p *Profiler) Link(i int) *LinkProf {
	if p == nil || i < 0 || i >= len(p.links) {
		return nil
	}
	return &p.links[i]
}

// Node returns node i's handle, or nil when the profiler is nil or i
// is out of range.
func (p *Profiler) Node(i int) *NodeProf {
	if p == nil || i < 0 || i >= len(p.nodes) {
		return nil
	}
	return &p.nodes[i]
}

// SetParallelStats attaches the parallel executor's runtime accounting.
func (p *Profiler) SetParallelStats(st *sim.ParallelStats) { p.pstats = st }

// ParallelStats returns the attached executor accounting, if any.
func (p *Profiler) ParallelStats() *sim.ParallelStats { return p.pstats }
