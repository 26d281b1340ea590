package core

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/errs"
	"repro/internal/firmware"
	"repro/internal/ht"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

func buildParallel(t *testing.T, n, workers int) *Cluster {
	t.Helper()
	topo, err := topology.Chain(n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Parallel = workers
	c, err := New(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParallelPartitionDerivation(t *testing.T) {
	c := buildParallel(t, 5, 2)
	if got := c.Partitions(); got != 2 {
		t.Fatalf("Partitions() = %d, want 2", got)
	}
	// Contiguous, nondecreasing, balanced blocks over address order.
	prev := 0
	for i := 0; i < c.N(); i++ {
		p := c.Partition(i)
		if p < prev || p > prev+1 {
			t.Fatalf("partition map not contiguous: node %d -> %d after %d", i, p, prev)
		}
		prev = p
	}
	if c.Partition(0) != 0 || c.Partition(c.N()-1) != c.Partitions()-1 {
		t.Fatalf("partition map does not span all partitions: %d..%d",
			c.Partition(0), c.Partition(c.N()-1))
	}
	// All external links share one config, so the lookahead must be
	// exactly one link's flight + minimum-packet serialization.
	want := crossLatency(c.ExternalLinks()[0])
	if got := c.Lookahead(); got != want {
		t.Fatalf("Lookahead() = %v, want %v", got, want)
	}
	if c.Lookahead() <= 0 {
		t.Fatal("lookahead must be positive")
	}
	// Partitioned nodes run on distinct engines; same-partition nodes
	// share one.
	if c.EngineFor(0) == c.EngineFor(c.N()-1) {
		t.Fatal("first and last node share an engine across partitions")
	}
	if c.EngineFor(0) != c.Engine() {
		t.Fatal("partition 0 must keep the boot engine")
	}
}

func TestParallelCapsAtNodeCount(t *testing.T) {
	c := buildParallel(t, 3, 16)
	if got := c.Partitions(); got != 3 {
		t.Fatalf("Partitions() = %d, want 3 (capped at node count)", got)
	}
}

func TestParallelOneNodeStaysSerial(t *testing.T) {
	c := buildParallel(t, 2, 1)
	if got := c.Partitions(); got != 1 {
		t.Fatalf("Partitions() = %d, want 1", got)
	}
	if c.Lookahead() != 0 {
		t.Fatal("serial cluster reports a lookahead")
	}
}

func TestParallelConfigValidation(t *testing.T) {
	topo, err := topology.Chain(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Parallel = -1
	if _, err := New(topo, cfg); !errors.Is(err, errs.ErrBadConfig) {
		t.Fatalf("negative Parallel: got %v, want ErrBadConfig", err)
	}
}

// TestParallelZeroLookaheadRejected forges a cluster whose only external
// link has zero guaranteed latency and checks that setupParallel refuses
// it with ErrDeadlockTopology instead of building a barrier that could
// never advance.
func TestParallelZeroLookaheadRejected(t *testing.T) {
	lc := ht.DefaultLinkConfig(ht.ClassProcessor, ht.ClassProcessor)
	lc.Flight = 0
	l := ht.NewLink(sim.NewEngine(), lc) // never trained: width 0, latency = flight = 0
	c := &Cluster{
		eng:      sim.NewEngine(),
		cfg:      Config{Parallel: 2},
		machines: make([]*firmware.Machine, 2),
		extLinks: []*ht.Link{l},
		extEnds:  [][2]int{{0, 1}},
	}
	err := c.setupParallel()
	if !errors.Is(err, errs.ErrDeadlockTopology) {
		t.Fatalf("zero-latency link: got %v, want ErrDeadlockTopology", err)
	}
	if c.runner != nil {
		t.Fatal("runner must not be built after a lookahead rejection")
	}
}

// TestParallelRunMatchesSerialTime drives identical store workloads on a
// serial and a 2-partition chain and requires identical final virtual
// times and link counters.
func TestParallelRunMatchesSerialTime(t *testing.T) {
	run := func(workers int) (sim.Time, [][2]uint64) {
		topo, err := topology.Chain(4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Parallel = workers
		c, err := New(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Every node streams 4 KB into its right neighbor's DRAM.
		for i := 0; i < c.N(); i++ {
			dst := c.Node((i + 1) % c.N())
			c.Node(i).Core().StoreBlock(dst.MemBase()+8<<20, make([]byte, 4096), func(error) {})
		}
		c.Run()
		var links [][2]uint64
		for _, l := range c.ExternalLinks() {
			links = append(links, [2]uint64{l.A().Stats().PktsSent, l.B().Stats().PktsSent})
		}
		if err := c.CheckQuiescent(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return c.Now(), links
	}
	serialT, serialL := run(0)
	parT, parL := run(2)
	if serialT != parT {
		t.Fatalf("final time diverged: serial %dps, parallel %dps", int64(serialT), int64(parT))
	}
	for i := range serialL {
		if serialL[i] != parL[i] {
			t.Fatalf("link %d counters diverged: serial %v, parallel %v", i, serialL[i], parL[i])
		}
	}
}

// memTracer records every trace event as a comparable string.
type memTracer struct{ evs []string }

func (m *memTracer) Emit(e trace.Event) {
	m.evs = append(m.evs, fmt.Sprintf("%d k=%v n=%d l=%d s=%d d=%d seq=%d b=%d %s",
		int64(e.At), e.Kind, e.Node, e.Link, e.Src, e.Dst, e.Seq, e.Bytes, e.Label))
}

// TestParallelTraceMatchesSerial is the strongest equivalence check: the
// multiset of trace events (timestamps, packet sequence numbers, wire
// bytes) from a contended ring workload must be identical serial vs
// split. Only the emission order within a window may differ, so both
// sides compare sorted.
func TestParallelTraceMatchesSerial(t *testing.T) {
	run := func(workers int) []string {
		topo, err := topology.Chain(4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Parallel = workers
		tr := &memTracer{}
		cfg.Tracer = tr
		c, err := New(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.N(); i++ {
			dst := c.Node((i + 1) % c.N())
			c.Node(i).Core().StoreBlock(dst.MemBase()+8<<20, make([]byte, 4096), func(error) {})
		}
		c.Run()
		sort.Strings(tr.evs)
		return tr.evs
	}
	serial, par := run(0), run(2)
	if len(serial) != len(par) {
		t.Fatalf("event counts diverged: serial %d, parallel %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("trace event %d diverged:\nserial:   %s\nparallel: %s", i, serial[i], par[i])
		}
	}
}
