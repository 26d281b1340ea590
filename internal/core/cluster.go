package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/errs"
	"repro/internal/firmware"
	"repro/internal/ht"
	"repro/internal/nb"
	"repro/internal/prof"
	"repro/internal/sim"
	"repro/internal/southbridge"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Cluster is a booted TCCluster: supernodes wired per a topology, with
// firmware-programmed address maps and trained non-coherent links.
type Cluster struct {
	eng       *sim.Engine
	cfg       Config
	topo      *topology.Topology
	machines  []*firmware.Machine
	nodes     []*Node
	extLinks  []*ht.Link
	extEnds   [][2]int     // node indices of each external link's A and B side
	nodeLinks [][]*ht.Link // per node: southbridge link + internal chain links
	flashes   []*southbridge.Device

	// Parallel-mode state, nil on serial runs; see parallel.go.
	engs   []*sim.Engine
	part   []int // node index -> partition index
	runner *sim.Parallel
	shards *trace.Shards
	exiled [][]*ht.Packet // per partition: foreign pooled packets awaiting repatriation

	// Scripted fault-action source, nil unless a campaign is installed.
	actions ActionSource
}

// ActionSource feeds scripted actions (fault campaigns) into the run
// loop. NextAction reports the earliest pending action's absolute
// virtual time; FireActions applies every action due at or before now.
// Actions fire on a clean cut of the timeline — after every event
// strictly before their timestamp, before any event at or after it —
// identically under the serial and parallel executors. FireActions may
// only schedule follow-up actions strictly later than now.
type ActionSource interface {
	NextAction() (sim.Time, bool)
	FireActions(now sim.Time)
}

// Node is the software-visible handle of one supernode.
type Node struct {
	idx     int
	cluster *Cluster
	machine *firmware.Machine
}

// New builds and boots a cluster over the given topology. It returns an
// error if the topology violates any architectural constraint: routing
// loops, too many address intervals for the northbridge's MMIO register
// file, or more external ports than the sockets can supply.
func New(topo *topology.Topology, cfg Config) (*Cluster, error) {
	if cfg.MemPerNode == 0 {
		cfg = fillDefaults(cfg)
	}
	if cfg.SocketsPerNode < 1 || cfg.SocketsPerNode > nb.MaxNodes {
		return nil, fmt.Errorf("core: %d sockets per node out of range 1..%d: %w", cfg.SocketsPerNode, nb.MaxNodes, errs.ErrBadConfig)
	}
	if cfg.CoresPerSocket < 1 || cfg.CoresPerSocket > 8 {
		return nil, fmt.Errorf("core: %d cores per socket out of range 1..8: %w", cfg.CoresPerSocket, errs.ErrBadConfig)
	}
	if cfg.Parallel < 0 {
		return nil, fmt.Errorf("core: negative Parallel %d: %w", cfg.Parallel, errs.ErrBadConfig)
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if err := topo.CheckIntervalRoutable(nb.NumMMIORanges - 1); err != nil {
		return nil, err
	}
	if uint64(topo.N())*cfg.MemPerNode > 1<<nb.PhysAddrBits {
		return nil, fmt.Errorf("core: %d nodes x %#x bytes exceeds the 48-bit physical space (256 TB, §IV.D): %w",
			topo.N(), cfg.MemPerNode, errs.ErrBadConfig)
	}

	c := &Cluster{eng: sim.NewEngine(), cfg: cfg, topo: topo}

	type slot struct{ socket, link int }
	extSlots := make([]map[int]slot, topo.N()) // node -> topology port -> (socket, link)
	free := make([][][]int, topo.N())          // node -> socket -> free link indices

	// Build machines: sockets, cores, southbridge, internal chain.
	memPerSocket := cfg.MemPerNode / uint64(cfg.SocketsPerNode)
	for i := 0; i < topo.N(); i++ {
		m := firmware.NewMachine(c.eng, fmt.Sprintf("node%d", i))
		m.SetTracer(cfg.Tracer, i)
		free[i] = make([][]int, cfg.SocketsPerNode)
		for s := 0; s < cfg.SocketsPerNode; s++ {
			n := nb.New(c.eng, fmt.Sprintf("node%d.s%d", i, s), memPerSocket, cfg.NBParams)
			n.SetTracer(cfg.Tracer, i)
			cores := make([]*cpu.Core, cfg.CoresPerSocket)
			for ci := range cores {
				cores[ci] = cpu.NewCore(c.eng, n, cfg.CPUParams)
			}
			m.AddProcessor(firmware.Processor{NB: n, Cores: cores})
			free[i][s] = []int{0, 1, 2, 3}
		}
		take := func(s int) (int, error) {
			if len(free[i][s]) == 0 {
				return 0, fmt.Errorf("core: node %d socket %d out of HT links: %w", i, s, errs.ErrBadConfig)
			}
			l := free[i][s][0]
			free[i][s] = free[i][s][1:]
			return l, nil
		}

		// Southbridge on the BSP.
		sbl, err := take(0)
		if err != nil {
			return nil, err
		}
		sb := ht.NewLink(c.eng, ht.DefaultLinkConfig(ht.ClassProcessor, ht.ClassIODevice))
		if err := m.Procs[0].NB.AttachLink(sbl, sb.A()); err != nil {
			return nil, err
		}
		m.SetSouthbridge(sbl, sb)
		// The flash device behind the southbridge holds a deterministic
		// "firmware image" the CAR phase fetches at flash speed.
		image := make([]byte, 4096)
		for b := range image {
			image[b] = byte(b*31 + 7)
		}
		flash, err := southbridge.New(c.eng, image, southbridge.DefaultParams())
		if err != nil {
			return nil, err
		}
		flash.AttachTo(sb.B())
		m.SetFlashDevice(flash)
		sb.ColdReset()
		nodeLinks := []*ht.Link{sb}

		// Internal coherent chain socket s <-> s+1.
		for s := 0; s+1 < cfg.SocketsPerNode; s++ {
			la, err := take(s)
			if err != nil {
				return nil, err
			}
			lb, err := take(s + 1)
			if err != nil {
				return nil, err
			}
			il := ht.NewLink(c.eng, ht.DefaultLinkConfig(ht.ClassProcessor, ht.ClassProcessor))
			if err := m.Procs[s].NB.AttachLink(la, il.A()); err != nil {
				return nil, err
			}
			if err := m.Procs[s+1].NB.AttachLink(lb, il.B()); err != nil {
				return nil, err
			}
			m.AddInternalLink(s, la, s+1, lb, il)
			il.ColdReset()
			nodeLinks = append(nodeLinks, il)
		}

		// Pre-assign external topology ports to sockets, spreading them
		// round-robin so no socket runs dry before another.
		extSlots[i] = make(map[int]slot)
		ports := topo.Neighbors(i)
		s := cfg.SocketsPerNode - 1 // start at the far socket: BSP is busiest
		for _, p := range ports {
			tried := 0
			for len(free[i][s]) == 0 {
				s = (s + 1) % cfg.SocketsPerNode
				tried++
				if tried > cfg.SocketsPerNode {
					return nil, fmt.Errorf("core: node %d needs %d external links, sockets exhausted",
						i, len(ports))
				}
			}
			l, err := take(s)
			if err != nil {
				return nil, err
			}
			extSlots[i][p.Port] = slot{socket: s, link: l}
			s = (s + 1) % cfg.SocketsPerNode
		}
		c.machines = append(c.machines, m)
		c.nodeLinks = append(c.nodeLinks, nodeLinks)
		c.flashes = append(c.flashes, flash)
	}

	// Wire external TCCluster links. A LinkWidth of 32 models the first
	// prototype's aggregated dual link (§V: two HT links "aggregated to
	// a dual link").
	cable := ht.DefaultLinkConfig(ht.ClassProcessor, ht.ClassProcessor)
	cable.Flight = cfg.CableFlight
	cable.ErrorRate = cfg.CableErrorRate
	if cfg.LinkWidth > cable.MaxWidth {
		cable.MaxWidth = cfg.LinkWidth
	}
	for a := 0; a < topo.N(); a++ {
		for _, nbr := range topo.Neighbors(a) {
			b := nbr.Peer
			if b < a {
				continue // wire each undirected link once
			}
			pb := topo.NextHop(b, a) // b's port back toward a (direct neighbor)
			sa, sb := extSlots[a][nbr.Port], extSlots[b][pb]
			// Distinct fault streams per cable; Seed zero reproduces the
			// historical default streams exactly.
			cable.ErrorSeed = cfg.Seed + uint64(len(c.extLinks)+1)
			l := ht.NewLink(c.eng, cable)
			l.SetTracer(cfg.Tracer, len(c.extLinks))
			if err := c.machines[a].Procs[sa.socket].NB.AttachLink(sa.link, l.A()); err != nil {
				return nil, err
			}
			if err := c.machines[b].Procs[sb.socket].NB.AttachLink(sb.link, l.B()); err != nil {
				return nil, err
			}
			c.machines[a].AddTCCLink(sa.socket, sa.link, l)
			c.machines[b].AddTCCLink(sb.socket, sb.link, l)
			l.ColdReset()
			c.extLinks = append(c.extLinks, l)
			c.extEnds = append(c.extEnds, [2]int{a, b})
		}
	}
	c.eng.Run() // cold training everywhere

	// Firmware configuration: interval routes from the topology.
	cfgs := make([]firmware.BootConfig, topo.N())
	for i := 0; i < topo.N(); i++ {
		var routes []firmware.RemoteRoute
		for _, iv := range topo.Intervals(i) {
			s := extSlots[i][iv.Port]
			routes = append(routes, firmware.RemoteRoute{
				LoNode: iv.Lo, HiNode: iv.Hi, Proc: s.socket, Link: s.link,
			})
		}
		cfgs[i] = firmware.BootConfig{
			Rank:         i,
			NumNodes:     topo.N(),
			MemPerNode:   cfg.MemPerNode,
			RemoteRoutes: routes,
			LinkSpeed:    cfg.LinkSpeed,
			LinkWidth:    cfg.LinkWidth,
			UCWindow:     cfg.UCWindow,
		}
	}
	if err := firmware.BootTCCluster(c.eng, c.machines, cfgs); err != nil {
		return nil, fmt.Errorf("core: boot failed: %w", err)
	}

	for i := range c.machines {
		c.nodes = append(c.nodes, &Node{idx: i, cluster: c, machine: c.machines[i]})
	}
	c.attachProfiler()
	if err := c.setupParallel(); err != nil {
		return nil, err
	}
	return c, nil
}

// attachProfiler hands pre-resolved phase-attribution handles to every
// instrumented component. It runs after firmware boot so cold training
// and boot traffic stay out of the latency budget, and before
// setupParallel so handles survive the engine rebind (they are engine-
// independent atomics). Internal links (southbridge, coherent chain)
// are deliberately left unprofiled: the budget attributes the TCCluster
// fabric.
func (c *Cluster) attachProfiler() {
	pr := c.cfg.Profiler
	if pr == nil {
		return
	}
	pr.Init(len(c.extLinks), c.topo.N())
	for i, l := range c.extLinks {
		l.SetProfiler(pr.Link(i), pr.Spans())
	}
	for i, m := range c.machines {
		np := pr.Node(i)
		for _, proc := range m.Procs {
			proc.NB.SetProfiler(np)
			for _, cr := range proc.Cores {
				cr.SetProfiler(np)
			}
		}
	}
}

// Profiler returns the profiler the cluster was built with, nil when
// profiling is disabled. Layers above core (msg receivers, monitors)
// reach their phase handles through this accessor.
func (c *Cluster) Profiler() *prof.Profiler { return c.cfg.Profiler }

func fillDefaults(cfg Config) Config {
	d := DefaultConfig()
	if cfg.MemPerNode == 0 {
		cfg.MemPerNode = d.MemPerNode
	}
	if cfg.SocketsPerNode == 0 {
		cfg.SocketsPerNode = d.SocketsPerNode
	}
	if cfg.CoresPerSocket == 0 {
		cfg.CoresPerSocket = d.CoresPerSocket
	}
	if cfg.LinkSpeed == 0 {
		cfg.LinkSpeed = d.LinkSpeed
	}
	if cfg.LinkWidth == 0 {
		cfg.LinkWidth = d.LinkWidth
	}
	if cfg.CableFlight == 0 {
		cfg.CableFlight = d.CableFlight
	}
	if cfg.UCWindow == 0 {
		cfg.UCWindow = d.UCWindow
	}
	zero := nb.Params{}
	if cfg.NBParams == zero {
		cfg.NBParams = d.NBParams
	}
	zeroCPU := cpu.Params{}
	if cfg.CPUParams == zeroCPU {
		cfg.CPUParams = d.CPUParams
	}
	return cfg
}

// Engine returns partition 0's simulation engine — the boot engine, and
// on serial runs the only one. Code that targets a specific node on a
// possibly-parallel cluster must use EngineFor instead.
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Now returns the cluster's virtual time. On parallel runs partition
// clocks are aligned between runs, so this is well-defined whenever the
// cluster is quiescent (which is the only time callers outside the
// simulation may observe it).
func (c *Cluster) Now() sim.Time {
	if c.runner != nil {
		return c.runner.Now()
	}
	return c.eng.Now()
}

// Config returns the configuration the cluster was built with.
func (c *Cluster) Config() Config { return c.cfg }

// Topology returns the interconnect topology.
func (c *Cluster) Topology() *topology.Topology { return c.topo }

// N returns the number of supernodes.
func (c *Cluster) N() int { return len(c.nodes) }

// Node returns supernode i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Nodes returns all supernodes.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// ExternalLinks returns the TCCluster links, for stats inspection.
func (c *Cluster) ExternalLinks() []*ht.Link { return c.extLinks }

// ExternalLinkEnds returns the node indices on the A and B side of
// external link id. Fault campaigns use it to resolve node-scoped
// targets (a node crash downs every cable touching the node).
func (c *Cluster) ExternalLinkEnds(id int) (a, b int) {
	e := c.extEnds[id]
	return e[0], e[1]
}

// Tracer returns the observability tracer the cluster was built with,
// nil when tracing is disabled. Layers above core (kernel, msg, mpi)
// reach the tracer through this accessor.
func (c *Cluster) Tracer() trace.Tracer { return c.cfg.Tracer }

// Metrics assembles an on-demand snapshot of the cluster's counters:
// per-port statistics of every external TCCluster link, per-socket
// northbridge counters, and — when the tracer is a *trace.Collector —
// the event-derived metrics (packet latency histograms, stall counts)
// merged on top. It works with tracing disabled too; the hardware
// counters are always live.
func (c *Cluster) Metrics() trace.Snapshot {
	s := trace.NewSnapshot()
	for i, l := range c.extLinks {
		for side, p := range [2]*ht.Port{l.A(), l.B()} {
			st := p.Stats()
			put := func(name string, v uint64) {
				if v != 0 {
					s.Counters[trace.Key{Name: name, Node: side, Link: i}] = v
				}
			}
			put("port.pkts_sent", st.PktsSent)
			put("port.bytes_sent", st.BytesSent)
			put("port.pkts_recv", st.PktsRecv)
			put("port.bytes_recv", st.BytesRecv)
			put("port.credit_stalls", st.CreditStalls)
			put("port.send_errors", st.SendErrors)
			put("port.crc_errors", st.CRCErrors)
			put("port.retries", st.Retries)
			put("port.aborted_pkts", st.AbortedPkts)
		}
	}
	for _, node := range c.nodes {
		for si, p := range node.machine.Procs {
			cnt := p.NB.Counters()
			put := func(name string, v uint64) {
				if v != 0 {
					s.Counters[trace.Key{Name: name, Node: node.idx, Chan: si}] = v
				}
			}
			put("nb.master_aborts", cnt.MasterAborts)
			put("nb.orphan_responses", cnt.OrphanResponses)
			put("nb.tag_exhausted", cnt.TagExhausted)
			put("nb.dead_link_drops", cnt.DeadLinkDrops)
			put("nb.pkts_from_cpu", cnt.PktsFromCPU)
			put("nb.pkts_from_links", cnt.PktsFromLinks)
			put("nb.pkts_to_dram", cnt.PktsToDRAM)
			put("nb.pkts_forwarded", cnt.PktsForwarded)
			put("nb.bridged_packets", cnt.BridgedPackets)
			put("nb.broadcasts", cnt.Broadcasts)
			put("nb.probes_issued", cnt.ProbesIssued)
		}
	}
	if col, ok := c.cfg.Tracer.(*trace.Collector); ok && col != nil {
		s.Merge(col.Metrics().Snapshot())
	}
	return s
}

// SetSampleHook installs fn to be called from inside the simulation
// loop at each multiple of every that the clock reaches or crosses.
// The hook rides the engine's clock probe, so it adds no events of its
// own: installing it never keeps Run from draining, and a cluster that
// stops scheduling work simply stops sampling. When the clock
// fast-forwards across several boundaries (an idle gap inside a
// bounded run), each boundary fires its own call with the clock parked
// exactly on it, so samples are stamped at exact multiples of every. A
// nil fn or non-positive every uninstalls the hook.
// On parallel runs the hook rides the window barrier instead: windows
// are clamped to sample boundaries and fn runs in the coordinator's
// serial section, after trace shards merge, with every worker parked.
func (c *Cluster) SetSampleHook(every sim.Time, fn func(now sim.Time)) {
	if c.runner != nil {
		c.runner.SetSampleHook(every, fn)
		return
	}
	if fn == nil || every <= 0 {
		c.eng.SetProbe(nil, 0)
		return
	}
	next := c.eng.Now() + every
	c.eng.SetProbe(func(now sim.Time) sim.Time {
		for next <= now {
			next += every
		}
		fn(now)
		return next
	}, next)
}

// LinkStatus describes one external TCCluster link for the monitoring
// layer: training state and the bandwidth implied by the trained width
// and clock.
type LinkStatus struct {
	ID        int
	State     string
	Type      string
	Width     int
	SpeedMHz  int
	Bandwidth float64 // unidirectional bytes/s, 0 while down
}

// LinkStatuses reports every external link's live status. It reads
// link training state, so it must be called from the simulation
// goroutine (the monitor calls it inside the sample hook).
func (c *Cluster) LinkStatuses() []LinkStatus {
	out := make([]LinkStatus, len(c.extLinks))
	for i, l := range c.extLinks {
		out[i] = LinkStatus{
			ID:        i,
			State:     l.State().String(),
			Type:      l.Type().String(),
			Width:     l.Width(),
			SpeedMHz:  int(l.Speed()),
			Bandwidth: l.RawBandwidth(),
		}
	}
	return out
}

// SetActionSource installs a scripted-action source (a fault
// campaign). On parallel clusters the source also hooks the window
// coordinator so actions fire in its serial sections.
func (c *Cluster) SetActionSource(src ActionSource) {
	c.actions = src
	if c.runner != nil {
		if src == nil {
			c.runner.SetActionHook(nil, nil)
			return
		}
		c.runner.SetActionHook(src.NextAction, src.FireActions)
	}
}

// Run drains all pending simulation events. Pending scripted actions
// count as work: a fault campaign's rejoin fires even on an idle
// fabric.
func (c *Cluster) Run() {
	if c.runner != nil {
		c.runner.Run()
		return
	}
	if c.actions != nil {
		c.runActions(0, false)
		return
	}
	c.eng.Run()
}

// RunFor advances virtual time by d.
func (c *Cluster) RunFor(d sim.Time) {
	if c.runner != nil {
		c.runner.RunFor(d)
		return
	}
	if c.actions != nil {
		c.runActions(c.eng.Now()+d, true)
		return
	}
	c.eng.RunFor(d)
}

// runActions is the serial run loop with a campaign installed: run up
// to (but not including) the next action's timestamp, align the clock
// onto it, fire, repeat. Time is integer picoseconds, so "every event
// strictly before t" is exactly RunUntil(t-1); AlignTo then parks the
// clock at t itself so the actions' mutations and any follow-ups they
// schedule observe the same instant the parallel coordinator produces.
func (c *Cluster) runActions(deadline sim.Time, bounded bool) {
	for {
		at, ok := c.actions.NextAction()
		if ok && bounded && at > deadline {
			ok = false
		}
		if !ok {
			if bounded {
				c.eng.RunUntil(deadline)
			} else {
				c.eng.Run()
			}
			return
		}
		if at > c.eng.Now() {
			c.eng.RunUntil(at - 1)
			c.eng.AlignTo(at)
		}
		c.actions.FireActions(at)
	}
}

// GlobalBase returns the first global physical address of node i's DRAM.
func (c *Cluster) GlobalBase(i int) uint64 { return uint64(i) * c.cfg.MemPerNode }

// ---- Node --------------------------------------------------------------

// Index returns this node's rank in address order.
func (n *Node) Index() int { return n.idx }

// Machine exposes the underlying board (boot log, sockets).
func (n *Node) Machine() *firmware.Machine { return n.machine }

// Now returns the node's partition-local virtual time. Workload
// callbacks (write hooks, fence completions) run on the partition that
// owns the node, so this is the clock they may read; the global
// Cluster.Now is only meaningful while the cluster is quiescent.
func (n *Node) Now() sim.Time { return n.machine.Eng.Now() }

// Engine returns the engine executing this node's events — the node's
// partition engine on parallel runs. Callbacks scheduling follow-up work
// against this node must use it rather than Cluster.Engine.
func (n *Node) Engine() *sim.Engine { return n.machine.Eng }

// BootLog returns the node's firmware boot log.
func (n *Node) BootLog() *firmware.BootLog { return n.machine.Log() }

// Core returns the BSP's first core, the default execution context.
func (n *Node) Core() *cpu.Core { return n.machine.Procs[0].Cores[0] }

// CoreOn returns core 0 of the given socket.
func (n *Node) CoreOn(socket int) *cpu.Core { return n.machine.Procs[socket].Cores[0] }

// CoreAt returns a specific core of a socket.
func (n *Node) CoreAt(socket, coreIdx int) *cpu.Core {
	return n.machine.Procs[socket].Cores[coreIdx]
}

// CoresPerSocket returns the per-socket core count.
func (n *Node) CoresPerSocket() int { return len(n.machine.Procs[0].Cores) }

// Sockets returns the number of sockets on the board.
func (n *Node) Sockets() int { return len(n.machine.Procs) }

// MemBase returns the node's first global physical address.
func (n *Node) MemBase() uint64 { return n.cluster.GlobalBase(n.idx) }

// MemSize returns the node's DRAM size in bytes.
func (n *Node) MemSize() uint64 { return n.cluster.cfg.MemPerNode }

// socketFor locates the socket and controller owning a node-local
// offset.
func (n *Node) socketFor(off uint64) (*nb.MemoryController, uint64, error) {
	per := n.MemSize() / uint64(n.Sockets())
	s := off / per
	if int(s) >= n.Sockets() {
		return nil, 0, fmt.Errorf("core: offset %#x outside node memory (%#x)", off, n.MemSize())
	}
	return n.machine.Procs[s].NB.MemController(), off - uint64(s)*per, nil
}

// WatchWrites registers a doorbell on the node-local range
// [off, off+size): fn fires, inside the store's DRAM-visibility event,
// whenever a write overlapping the range lands in this node's memory
// over the fabric. The message layer uses it to replace idle receive
// polling with event-driven wake-ups. The range must lie within one
// socket's memory slice. The returned function removes the watch.
func (n *Node) WatchWrites(off, size uint64, fn func()) (func(), error) {
	per := n.MemSize() / uint64(n.Sockets())
	s := off / per
	if size == 0 || int(s) >= n.Sockets() || (off+size-1)/per != s {
		return nil, fmt.Errorf("core: watch [%#x,+%#x) outside one socket's memory (%#x per socket)", off, size, per)
	}
	nbr := n.machine.Procs[s].NB
	lo := n.MemBase() + off
	id := nbr.WatchWrites(lo, lo+size, fn)
	return func() { nbr.Unwatch(id) }, nil
}

// PeekMem reads node-local memory contents without simulation time:
// verification and test setup only, never a modeled access path.
func (n *Node) PeekMem(off uint64, nBytes int) ([]byte, error) {
	mc, local, err := n.socketFor(off)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, nBytes)
	if err := mc.Memory().Read(local, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// PokeMem writes node-local memory contents without simulation time.
func (n *Node) PokeMem(off uint64, data []byte) error {
	mc, local, err := n.socketFor(off)
	if err != nil {
		return err
	}
	return mc.Memory().Write(local, data)
}

// CheckQuiescent verifies the whole-cluster idle invariants after a
// workload has drained: no routing faults occurred, no responses
// orphaned, no tags or write-combining buffers leaked, every link queue
// empty and every flow-control credit returned. Tests call it as a
// strong post-condition; failure means the models leaked state even if
// the workload's data arrived intact.
func (c *Cluster) CheckQuiescent() error {
	for _, node := range c.nodes {
		for si, p := range node.machine.Procs {
			cnt := p.NB.Counters()
			switch {
			case cnt.MasterAborts != 0:
				return fmt.Errorf("core: node%d.s%d: %d master aborts", node.idx, si, cnt.MasterAborts)
			case cnt.OrphanResponses != 0:
				return fmt.Errorf("core: node%d.s%d: %d orphan responses", node.idx, si, cnt.OrphanResponses)
			case cnt.DeadLinkDrops != 0:
				return fmt.Errorf("core: node%d.s%d: %d dead-link drops", node.idx, si, cnt.DeadLinkDrops)
			case cnt.TagExhausted != 0:
				return fmt.Errorf("core: node%d.s%d: %d tag exhaustions", node.idx, si, cnt.TagExhausted)
			}
			if out := p.NB.MatchTable().Outstanding(); out != 0 {
				return fmt.Errorf("core: node%d.s%d: %d outstanding response tags", node.idx, si, out)
			}
			for ci, cr := range p.Cores {
				if n := cr.WCInUse(); n != 0 {
					return fmt.Errorf("core: node%d.s%d.c%d: %d write-combining buffers still held",
						node.idx, si, ci, n)
				}
			}
		}
	}
	for i, l := range c.extLinks {
		if err := l.A().CheckIdle(); err != nil {
			return fmt.Errorf("core: link %d: %w", i, err)
		}
		if err := l.B().CheckIdle(); err != nil {
			return fmt.Errorf("core: link %d: %w", i, err)
		}
	}
	return nil
}
