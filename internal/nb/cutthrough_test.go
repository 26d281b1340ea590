package nb

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/ht"
	"repro/internal/sim"
)

// The transit cut-through and the deferred credit coupons must be
// invisible: every run below is compared, field by field, against the
// same run on the stepwise oracle.

const cutMem = 16 << 20 // DRAM per node in the fabrics below

// cutCase is one randomized fabric and workload.
type cutCase struct {
	seed   uint64
	n      int      // nodes; NodeID = index, so responses route home
	edges  [][2]int // links, in attach order
	bufs   ht.BufferConfig
	parts  int // executor partitions
	bursts int // CPU write bursts
}

// cutFabric is a hand-wired multi-node fabric on a sim.Parallel, built
// the way core builds a cluster: boot on one engine, then split links
// that cross partitions and give each partition its own packet pool.
type cutFabric struct {
	par    *sim.Parallel
	engs   []*sim.Engine
	part   []int
	nbs    []*Northbridge
	links  []*ht.Link
	exiled [][]*ht.Packet
}

func buildCutFabric(t *testing.T, c cutCase) *cutFabric {
	t.Helper()
	boot := sim.NewEngine()
	f := &cutFabric{engs: []*sim.Engine{boot}, part: make([]int, c.n)}
	for i := 0; i < c.n; i++ {
		f.nbs = append(f.nbs, New(boot, fmt.Sprintf("n%d", i), cutMem, DefaultParams()))
	}
	// Attach links in order; ports[i][j] is node i's link index toward
	// neighbor j.
	ports := make([]map[int]int, c.n)
	for i := range ports {
		ports[i] = map[int]int{}
	}
	for _, e := range c.edges {
		cfg := ht.DefaultLinkConfig(ht.ClassProcessor, ht.ClassProcessor)
		cfg.ABuffers, cfg.BBuffers = c.bufs, c.bufs
		l := ht.NewLink(boot, cfg)
		l.ColdReset()
		boot.Run()
		l.A().SetForceNonCoherent(true)
		l.B().SetForceNonCoherent(true)
		l.A().SetProgrammedSpeed(ht.HT800)
		l.B().SetProgrammedSpeed(ht.HT800)
		l.A().SetProgrammedWidth(16)
		l.B().SetProgrammedWidth(16)
		l.WarmReset()
		boot.Run()
		a, b := e[0], e[1]
		ports[a][b], ports[b][a] = len(ports[a]), len(ports[b])
		must(t, f.nbs[a].AttachLink(ports[a][b], l.A()))
		must(t, f.nbs[b].AttachLink(ports[b][a], l.B()))
		f.links = append(f.links, l)
	}
	// Shortest-path routing by BFS from every destination.
	for dst := 0; dst < c.n; dst++ {
		dist := make([]int, c.n)
		for i := range dist {
			dist[i] = -1
		}
		dist[dst] = 0
		for q := []int{dst}; len(q) > 0; q = q[1:] {
			for nb := range ports[q[0]] {
				if dist[nb] < 0 {
					dist[nb] = dist[q[0]] + 1
					q = append(q, nb)
				}
			}
		}
		for src := 0; src < c.n; src++ {
			if src == dst {
				continue
			}
			hop := -1
			for nb := range ports[src] {
				if dist[nb] == dist[src]-1 && (hop < 0 || nb < hop) {
					hop = nb
				}
			}
			p := uint8(ports[src][hop])
			must(t, f.nbs[src].SetRoute(uint8(dst), RouteEntry{ReqLink: p, RespLink: p}))
		}
	}
	for i, n := range f.nbs {
		must(t, n.SetNodeID(uint8(i)))
		for j := 0; j < c.n; j++ {
			base := uint64(j) * cutMem
			must(t, n.SetDRAMRange(j, DRAMRange{Base: base, Limit: base + cutMem - 1, DstNode: uint8(j), RE: true, WE: true}))
		}
		n.MemController().SetBase(uint64(i) * cutMem)
	}

	// Partition: the first half of the nodes on the boot engine.
	inboxes := [][]*sim.Mailbox{nil}
	pair := [][]sim.Time{{0}}
	if c.parts == 2 {
		second := sim.NewEngine()
		second.WarpTo(boot.Now())
		f.engs = append(f.engs, second)
		inboxes = make([][]*sim.Mailbox, 2)
		pair = [][]sim.Time{{0, 0}, {0, 0}}
		pools := []*ht.PacketPool{{}, {}}
		f.exiled = make([][]*ht.Packet, 2)
		for i, n := range f.nbs {
			if i >= c.n/2 {
				f.part[i] = 1
			}
			pi := f.part[i]
			n.SetEngine(f.engs[pi])
			n.SetPool(pools[pi])
			n.SetExile(func(p *ht.Packet) { f.exiled[pi] = append(f.exiled[pi], p) })
		}
		for k, l := range f.links {
			pa, pb := f.part[c.edges[k][0]], f.part[c.edges[k][1]]
			if pa == pb {
				l.Rebind(f.engs[pa])
				continue
			}
			lat := l.FlightTime() + l.SerializationTime(4)
			pair[pa][pb], pair[pb][pa] = lat, lat
			toA, toB := &sim.Mailbox{From: pb, To: pa}, &sim.Mailbox{From: pa, To: pb}
			inboxes[pa] = append(inboxes[pa], toA)
			inboxes[pb] = append(inboxes[pb], toB)
			l.Split(f.engs[pa], f.engs[pb], toA, toB, nil, nil)
		}
	}
	par, err := sim.NewParallel(f.engs, inboxes, pair)
	if err != nil {
		t.Fatal(err)
	}
	par.SetBarrierHook(func() {
		for pi := range f.exiled {
			for j, p := range f.exiled[pi] {
				p.Release()
				f.exiled[pi][j] = nil
			}
			f.exiled[pi] = f.exiled[pi][:0]
		}
	})
	f.par = par
	return f
}

// cutOutcome is everything a run exposes: it must be identical on both
// paths.
type cutOutcome struct {
	events   uint64
	now      sim.Time
	counters string
	landings string // per node: digest of every store's (time, addr, size)
	acks     string // per node: digest of every non-posted completion
	samples  []string
}

func runCutCase(t *testing.T, c cutCase, stepwise bool) (cutOutcome, uint64) {
	t.Helper()
	prev := sim.SetStepwise(stepwise)
	defer sim.SetStepwise(prev)
	f := buildCutFabric(t, c)
	defer f.par.Close()
	// Per-node digests: each node's callbacks run on its own partition.
	land, acks := make([]hash.Hash64, c.n), make([]hash.Hash64, c.n)
	for i, n := range f.nbs {
		eng, h := f.engs[f.part[i]], fnv.New64a()
		land[i], acks[i] = h, fnv.New64a()
		n.WatchWrites(0, math.MaxUint64, func(addr uint64, nBytes int) {
			fmt.Fprint(h, eng.Now(), addr, nBytes)
		})
	}
	counters := func() string {
		s := ""
		for _, n := range f.nbs {
			s += fmt.Sprint(n.Counters())
		}
		for _, l := range f.links {
			s += fmt.Sprint(l.A().Stats(), l.B().Stats())
		}
		return s
	}

	// The workload: bursts of posted 64-byte writes and non-posted
	// writes between random nodes, issued at random instants.
	r := sim.NewRand(c.seed)
	start := f.par.Now()
	var last sim.Time
	for b := 0; b < c.bursts; b++ {
		src, dst := r.Intn(c.n), r.Intn(c.n)
		at := start + sim.Time(r.Intn(4000))*sim.Nanosecond/4
		last = max(last, at)
		count, posted := 1+r.Intn(6), r.Intn(4) != 0
		addr := uint64(dst)*cutMem + uint64(r.Intn(1<<12))*64
		n, h, id := f.nbs[src], acks[src], b
		f.engs[f.part[src]].At(at, func() {
			for k := 0; k < count; k++ {
				if posted {
					n.CPUWrite(addr+uint64(k)*64, make([]byte, 64), true, func(error) {})
					continue
				}
				n.CPUWrite(addr+uint64(k)*64, make([]byte, 8), false, func(err error) {
					fmt.Fprint(h, id, k, n.eng.Now(), err)
				})
			}
		})
	}

	// A sample hook, a degrade-and-clear fault campaign on one link and
	// a run deadline all fall inside the traffic.
	var out cutOutcome
	f.par.SetSampleHook(sim.Time(200+r.Intn(300))*sim.Nanosecond+sim.Time(r.Intn(1000)), func(now sim.Time) {
		out.samples = append(out.samples, fmt.Sprint(now, f.par.Fired(), counters()))
	})
	faulty := f.links[r.Intn(len(f.links))]
	actions := []sim.Time{start + sim.Time(r.Intn(400))*sim.Nanosecond + 7, start + sim.Time(400+r.Intn(400))*sim.Nanosecond + 3}
	f.par.SetActionHook(func() (sim.Time, bool) {
		if len(actions) == 0 {
			return 0, false
		}
		return actions[0], true
	}, func(now sim.Time) {
		if len(actions) == 2 {
			faulty.SetFaultRate(0.3, 40*sim.Nanosecond)
		} else {
			faulty.ClearFaultOverride()
		}
		actions = actions[1:]
	})
	f.par.RunUntil(start + (last-start)/2 + 13)
	f.par.Run()

	out.events = f.par.Fired()
	out.now = f.par.Now()
	out.counters = counters()
	for i := range land {
		out.landings += fmt.Sprint(land[i].Sum64(), " ")
		out.acks += fmt.Sprint(acks[i].Sum64(), " ")
	}
	for i, l := range f.links {
		if err := l.A().CheckIdle(); err != nil {
			t.Errorf("link %d: %v", i, err)
		}
		if err := l.B().CheckIdle(); err != nil {
			t.Errorf("link %d: %v", i, err)
		}
	}
	return out, f.par.Queued()
}

// randomCutCase draws a chain of 2-6 nodes or a small torus, default or
// tiny link buffers, and one or two partitions.
func randomCutCase(seed uint64) cutCase {
	r := sim.NewRand(seed)
	c := cutCase{seed: seed, parts: 1 + r.Intn(2), bursts: 20 + r.Intn(40)}
	switch r.Intn(3) {
	case 0, 1:
		c.n = 2 + r.Intn(5)
		for i := 0; i+1 < c.n; i++ {
			c.edges = append(c.edges, [2]int{i, i + 1})
		}
	default: // 2x2 or 2x3 torus: rows of w joined into rings, columns paired
		w := 2 + r.Intn(2)
		c.n = 2 * w
		for row := 0; row < 2; row++ {
			for x := 0; x < w; x++ {
				a, b := row*w+x, row*w+(x+1)%w
				if a < b || w > 2 {
					c.edges = append(c.edges, [2]int{min(a, b), max(a, b)})
				}
			}
		}
		for x := 0; x < w; x++ {
			c.edges = append(c.edges, [2]int{x, w + x})
		}
	}
	c.bufs = ht.DefaultBufferConfig()
	if r.Intn(2) == 0 {
		c.bufs = ht.BufferConfig{
			Cmd:  [ht.NumVCs]int{ht.VCPosted: 1 + r.Intn(2), ht.VCNonPosted: 1, ht.VCResponse: 1},
			Data: [ht.NumVCs]int{ht.VCPosted: 1 + r.Intn(2), ht.VCNonPosted: 1, ht.VCResponse: 1},
		}
	}
	return c
}

// Property: with transit hops fired ahead and coupons deferred, every
// randomized fabric and workload reaches the same event count, final
// time, counters, store landings, completions and sample train as on
// the stepwise oracle.
func TestCutThroughMatchesStepwiseProperty(t *testing.T) {
	cases := 40
	if testing.Short() {
		cases = 12
	}
	var fired, queued uint64
	for s := 1; s <= cases; s++ {
		c := randomCutCase(uint64(s))
		t.Run(fmt.Sprintf("seed%d-n%d-p%d", s, c.n, c.parts), func(t *testing.T) {
			fast, q := runCutCase(t, c, false)
			step, qs := runCutCase(t, c, true)
			if qs != step.events {
				t.Fatalf("stepwise oracle queued %d of %d events", qs, step.events)
			}
			if fast.events != step.events || fast.now != step.now {
				t.Fatalf("events %d now %v, stepwise %d %v", fast.events, fast.now, step.events, step.now)
			}
			if fast.counters != step.counters {
				t.Fatalf("counters differ:\n fast %s\n step %s", fast.counters, step.counters)
			}
			if fast.landings != step.landings || fast.acks != step.acks {
				t.Fatal("store landings or non-posted completions differ")
			}
			if len(fast.samples) == 0 || fmt.Sprint(fast.samples) != fmt.Sprint(step.samples) {
				t.Fatalf("sample trains differ (%d vs %d samples)", len(fast.samples), len(step.samples))
			}
			fired += fast.events
			queued += q
		})
	}
	if queued >= fired {
		t.Fatalf("no event was fired ahead or deferred: queued %d of %d", queued, fired)
	}
}
