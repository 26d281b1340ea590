package core

import (
	"fmt"

	"repro/internal/errs"
	"repro/internal/ht"
	"repro/internal/sim"
	"repro/internal/trace"
)

// crossLatency is the minimum virtual time a packet spends crossing one
// external link: cable flight plus serialization of the smallest (4-byte)
// HT packet at the link's trained width and clock. It is the lookahead a
// conservative window can rely on — nothing crosses the cut faster, so
// events inside a window of this width cannot be affected by the other
// side of the link.
func crossLatency(l *ht.Link) sim.Time {
	if l.State() != ht.StateActive || l.Width() == 0 {
		// Untrained or downed link: only the wire delay is guaranteed
		// (serialization time is undefined at width 0).
		return l.FlightTime()
	}
	return l.FlightTime() + l.SerializationTime(4)
}

// setupParallel builds the cluster's executor. Every cluster runs on
// a sim.Parallel: a serial cluster (cfg.Parallel <= 1, or a single
// node) is one partition wrapping the boot engine — no split, no
// mailboxes, no trace shards, no PDES accounting, and no goroutine.
// Otherwise the booted cluster splits into cfg.Parallel partitions
// (see split) joined by a conservative windowed barrier.
func (c *Cluster) setupParallel() error {
	p := min(c.cfg.Parallel, len(c.machines))
	c.part = make([]int, len(c.machines))
	c.engs = []*sim.Engine{c.eng}
	inboxes, pair := [][]*sim.Mailbox{nil}, [][]sim.Time{{0}}
	if p >= 2 {
		var err error
		if inboxes, pair, err = c.split(p); err != nil {
			return err
		}
	}
	runner, err := sim.NewParallel(c.engs, inboxes, pair)
	if err != nil {
		return err
	}
	if p >= 2 {
		c.instrument(runner)
	}
	c.runner = runner
	return nil
}

// split partitions the booted cluster into p partitions, each with its
// own event engine, packet pool, and trace shard. The partition map is
// a greedy graph-cut over the external-link graph. It returns the
// executor's mailbox wiring and its direct pair-latency matrix: the
// fastest link between each partition pair.
//
// It runs after firmware boot: construction and boot happen on a single
// engine exactly as in serial mode, so the boot sequence — including its
// trace — is bit-identical to a serial run. Only then are components
// rebound onto partition engines, all warped to the boot end time.
func (c *Cluster) split(p int) ([][]*sim.Mailbox, [][]sim.Time, error) {
	// Reject zero-lookahead interconnects before deriving partitions:
	// conservative windows advance by at least the smallest external-link
	// latency, so a zero-latency cable would livelock the barrier no
	// matter how the nodes end up grouped.
	for i, l := range c.extLinks {
		if crossLatency(l) <= 0 {
			return nil, nil, fmt.Errorf("core: external link %d (node%d<->node%d) has zero latency, so a conservative parallel window can never advance: %w",
				i, c.extEnds[i][0], c.extEnds[i][1], errs.ErrDeadlockTopology)
		}
	}

	// Derive the partition map from the external-link graph: edge
	// affinity is inverse link latency (cutting a slow link costs
	// little — its latency buys window width), node weight the node's
	// core count as an event-rate proxy. The partition map never
	// affects simulation results, only how they are computed; the
	// parallel-vs-serial determinism gates prove it.
	n := len(c.machines)
	graph := partitionGraph{nodes: n, nodeW: make([]float64, n)}
	for i, m := range c.machines {
		w := 0
		if m != nil {
			for _, proc := range m.Procs {
				w += len(proc.Cores)
			}
		}
		graph.nodeW[i] = float64(w) // zero falls back to unit weight
	}
	for i, l := range c.extLinks {
		lat := crossLatency(l)
		graph.edges = append(graph.edges, partitionEdge{
			a: c.extEnds[i][0], b: c.extEnds[i][1], w: 1 / lat.Nanos(),
		})
	}
	assign, err := graphCut(graph, p)
	if err != nil {
		return nil, nil, fmt.Errorf("core: graph-cut partitioning: %w", err)
	}
	c.part = assign

	bootEnd := c.eng.Now()
	c.engs = make([]*sim.Engine, p)
	c.engs[0] = c.eng // partition 0 keeps the boot engine and its history
	for i := 1; i < p; i++ {
		c.engs[i] = sim.NewEngine()
		c.engs[i].WarpTo(bootEnd)
	}

	// One packet pool per partition keeps the link transfer path
	// allocation-free without sharing free lists across goroutines.
	// Packets that terminate away from their home pool are exiled and
	// repatriated at the barrier, when every worker is parked.
	pools := make([]*ht.PacketPool, p)
	c.exiled = make([][]*ht.Packet, p)
	for i := range pools {
		pools[i] = &ht.PacketPool{}
	}
	if c.cfg.Tracer != nil {
		c.shards = trace.NewShards(c.cfg.Tracer, p)
	}
	shard := func(pi int) trace.Tracer {
		if c.shards == nil {
			return nil
		}
		return c.shards.Shard(pi)
	}

	// Migrate every component onto its partition's engine and shard.
	for i, m := range c.machines {
		pi := c.part[i]
		eng := c.engs[pi]
		m.Eng = eng
		if c.shards != nil {
			m.SetTracer(shard(pi), i)
		}
		for _, proc := range m.Procs {
			proc.NB.SetEngine(eng)
			proc.NB.SetPool(pools[pi])
			exil := &c.exiled[pi]
			proc.NB.SetExile(func(pkt *ht.Packet) { *exil = append(*exil, pkt) })
			if c.shards != nil {
				proc.NB.SetTracer(shard(pi), i)
			}
			for _, cr := range proc.Cores {
				cr.SetEngine(eng)
			}
		}
		for _, l := range c.nodeLinks[i] {
			l.Rebind(eng)
		}
		c.flashes[i].SetEngine(eng)
	}

	// External links: intra-partition links just rebind; links that cross
	// a cut split into two half-links exchanging events through SPSC
	// mailboxes the coordinator flips at window boundaries. The executor
	// closes the pair matrix under composition, so partition windows
	// widen to the actual influence distance instead of the single
	// global minimum.
	inboxes := make([][]*sim.Mailbox, p)
	pair := make([][]sim.Time, p)
	for i := range pair {
		pair[i] = make([]sim.Time, p)
	}
	for i, l := range c.extLinks {
		pa, pb := c.part[c.extEnds[i][0]], c.part[c.extEnds[i][1]]
		if pa == pb {
			l.Rebind(c.engs[pa])
			if c.shards != nil {
				l.SetTracer(shard(pa), i)
			}
			continue
		}
		if lat := crossLatency(l); pair[pa][pb] == 0 || lat < pair[pa][pb] {
			pair[pa][pb] = lat
			pair[pb][pa] = lat
		}
		// Mailbox labels feed the profiler's cross-partition traffic
		// matrix: toA carries events pb publishes into pa, and vice versa.
		toA, toB := &sim.Mailbox{From: pb, To: pa}, &sim.Mailbox{From: pa, To: pb}
		inboxes[pa] = append(inboxes[pa], toA)
		inboxes[pb] = append(inboxes[pb], toB)
		l.Split(c.engs[pa], c.engs[pb], toA, toB, shard(pa), shard(pb))
	}
	return inboxes, pair, nil
}

// instrument installs a split cluster's barrier hook — merge trace
// shards, repatriate exiled packets — and, when profiling, the PDES
// runtime accounting with the cut description.
func (c *Cluster) instrument(runner *sim.Parallel) {
	if pr := c.cfg.Profiler; pr != nil {
		cutLinks, cutWeight := 0, 0.0
		for i, l := range c.extLinks {
			if c.part[c.extEnds[i][0]] != c.part[c.extEnds[i][1]] {
				cutLinks++
				cutWeight += 1 / crossLatency(l).Nanos()
			}
		}
		st := sim.NewParallelStats(len(c.engs))
		st.SetCut(cutLinks, cutWeight)
		runner.SetStats(st)
		pr.SetParallelStats(st)
	}
	runner.SetBarrierHook(func() {
		if c.shards != nil {
			c.shards.Merge()
		}
		for pi := range c.exiled {
			for j, pkt := range c.exiled[pi] {
				pkt.Release()
				c.exiled[pi][j] = nil
			}
			c.exiled[pi] = c.exiled[pi][:0]
		}
	})
}

// Partitions returns the number of worker partitions, 1 on serial runs.
func (c *Cluster) Partitions() int { return len(c.engs) }

// Partition returns the partition index owning node i (0 on serial runs).
func (c *Cluster) Partition(i int) int { return c.part[i] }

// Lookahead returns the conservative window width of a parallel run, or
// 0 on serial runs.
func (c *Cluster) Lookahead() sim.Time { return c.runner.Lookahead() }

// EngineFor returns the engine that executes node i's events. Layers
// that schedule work against a specific node (kernel pollers, message
// rings) must use this, not Engine, so their events land on the
// partition that owns the node.
func (c *Cluster) EngineFor(i int) *sim.Engine { return c.engs[c.part[i]] }

// TracerFor returns the tracer node i's partition may emit into from a
// worker goroutine: its trace shard on parallel runs, the base tracer
// otherwise. Nil when tracing is disabled.
func (c *Cluster) TracerFor(i int) trace.Tracer {
	if c.shards == nil {
		return c.cfg.Tracer
	}
	return c.shards.Shard(c.part[i])
}

// Close stops the executor's worker goroutines, if it started any. It
// is idempotent and safe on clusters that never ran; running the
// cluster again restarts the workers.
func (c *Cluster) Close() { c.runner.Close() }

// EventsFired returns the total number of simulation events executed
// across all partitions.
func (c *Cluster) EventsFired() uint64 { return c.runner.Fired() }

// EventsQueued returns how many of the fired events went through an
// event queue. The rest were transit hops fired ahead and credit
// coupons applied lazily (see sim.Reserve); EventsFired counts them
// all, exactly as a stepwise run does.
func (c *Cluster) EventsQueued() uint64 { return c.runner.Queued() }
