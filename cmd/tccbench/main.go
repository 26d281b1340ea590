// Command tccbench is an OSU-microbenchmark-style runner over the
// TCCluster public API: point-to-point latency and bandwidth (uni- and
// bidirectional) through the message library, plus MPI collective
// timings — the tool a cluster operator would run first on a new
// fabric. Its JSON families regenerate the committed BENCH_*.json
// reports and gate a run against them.
//
// Usage:
//
//	tccbench -bench latency  [-max 4096]
//	tccbench -bench bw       [-max 65536]
//	tccbench -bench bibw
//	tccbench -bench allreduce [-nodes 8]
//	tccbench -bench engine|parallel|serve [-out BENCH_x.json] [-baseline BENCH_x.json] [-repeat 5]
//	tccbench -bench faults|monitor|prof   [-out BENCH_x.json] [-baseline BENCH_x.json]
//
// Every benchmark takes -cpuprofile and -memprofile.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	tccluster "repro"
	"repro/internal/stats"
)

var families = map[string]family{
	"engine":   runEngineBench,
	"parallel": runParallelBench,
	"faults":   runFaultsBench,
	"serve":    runServeBench,
	"monitor":  runMonitorBench,
	"prof":     runProfBench,
}

// stopProfiles finishes the profiles main started. check runs it before
// exiting, so a failing run still leaves complete profiles behind.
var stopProfiles = func() {}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tccbench:", err)
		os.Exit(1)
	}
}

func run() error {
	bench := flag.String("bench", "latency", "latency | bw | bibw | allreduce | monitor | engine | parallel | faults | prof | serve")
	maxSize := flag.Int("max", 4096, "largest message size to sweep")
	nodes := flag.Int("nodes", 4, "cluster size (allreduce)")
	out := flag.String("out", "", "write the JSON report to this path (JSON families)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile after the run to this file")
	baseline := flag.String("baseline", "", "committed report to gate against: equal fingerprints, gated metrics within 15% (JSON families)")
	repeat := flag.Int("repeat", 1, "attempts per cell, fastest kept (engine, parallel, serve; faults is pure virtual time, monitor and prof run their own trials)")
	flag.Parse()

	var cpu *os.File
	if *cpuprofile != "" {
		var err error
		cpu, err = os.Create(*cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(cpu))
	}
	stopProfiles = func() {
		stopProfiles = func() {} // runs once; check may call it again
		if cpu != nil {
			pprof.StopCPUProfile()
			check(cpu.Close())
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			check(err)
			runtime.GC()
			check(pprof.WriteHeapProfile(f))
			check(f.Close())
		}
	}
	defer stopProfiles()

	switch *bench {
	case "latency":
		runLatency(*maxSize)
	case "bw":
		runBW(*maxSize, false)
	case "bibw":
		runBW(*maxSize, true)
	case "allreduce":
		runAllreduce(*nodes)
	default:
		fam, ok := families[*bench]
		if !ok {
			fmt.Fprintf(os.Stderr, "tccbench: unknown benchmark %q\n", *bench)
			stopProfiles()
			os.Exit(2)
		}
		return benchJSON(*bench, fam, *repeat, *out, *baseline)
	}
	return nil
}

// chain boots an n-node chain, under WithParallel(workers) when
// workers > 0.
func chain(n, workers int, opts ...tccluster.Option) *tccluster.Cluster {
	topo, err := tccluster.Chain(n)
	check(err)
	return boot(topo, tccluster.DefaultConfig(), workers, opts)
}

// torus boots a w×h torus. Torus nodes have four external ports, so
// supernodes need two sockets.
func torus(w, h, workers int) *tccluster.Cluster {
	topo, err := tccluster.Torus(w, h)
	check(err)
	cfg := tccluster.DefaultConfig()
	cfg.SocketsPerNode = 2
	return boot(topo, cfg, workers, nil)
}

func boot(topo *tccluster.Topology, cfg tccluster.Config, workers int, opts []tccluster.Option) *tccluster.Cluster {
	if workers > 0 {
		opts = append([]tccluster.Option{tccluster.WithParallel(workers)}, opts...)
	}
	c, err := tccluster.New(topo, cfg, opts...)
	check(err)
	return c
}

// pingpong is a message ping-pong between nodes a and b: b echoes every
// message back, and a sends the next one when the echo lands.
type pingpong struct {
	now      func() tccluster.Time // node a's partition clock
	sAB, sBA *tccluster.Sender
	rAB, rBA *tccluster.Receiver
	done     int
	rtt      tccluster.Time // summed round-trip time
	sum      uint64         // FNV-1a digest of the round-trip times
}

// openPingpong opens both channels.
func openPingpong(c *tccluster.Cluster, a, b int, par tccluster.MsgParams) *pingpong {
	p := &pingpong{now: c.EngineFor(a).Now, sum: fnvBasis}
	var err error
	p.sAB, p.rAB, err = c.OpenChannel(a, b, par)
	check(err)
	p.sBA, p.rBA, err = c.OpenChannel(b, a, par)
	check(err)
	return p
}

// start starts b's echo loop and sends the first of rounds size-byte
// pings. With stopWhenDone the echo loop stops after the last round so
// the cluster quiesces; otherwise it keeps polling until the caller
// stops it.
func (p *pingpong) start(size, rounds int, stopWhenDone bool) {
	var echo func()
	echo = func() {
		p.rAB.Recv(func(d []byte, err error) {
			if err != nil {
				return
			}
			p.sBA.Send(d, func(error) {})
			echo()
		})
	}
	echo()
	var round func(i int)
	round = func(i int) {
		if i >= rounds {
			if stopWhenDone {
				p.rAB.Stop()
			}
			return
		}
		sent := p.now()
		p.rBA.Recv(func(_ []byte, err error) {
			if err != nil {
				return
			}
			rtt := p.now() - sent
			p.rtt += rtt
			p.sum = fnvAdd(p.sum, uint64(rtt))
			p.done++
			round(i + 1)
		})
		p.sAB.Send(make([]byte, size), func(error) {})
	}
	round(0)
}

// runFor is the Fig. 7 measurement: rounds pings, then the idle
// receivers spin until window has passed, then both stop.
func (p *pingpong) runFor(c *tccluster.Cluster, size, rounds int, window tccluster.Time) cell {
	m := measureCluster(c, func() {
		p.start(size, rounds, false)
		c.RunFor(window)
		p.rAB.Stop()
		p.rBA.Stop()
		c.Run()
	})
	p.mustComplete(rounds)
	m.Checksum = p.sum
	return m
}

func (p *pingpong) mustComplete(rounds int) {
	if p.done != rounds {
		check(fmt.Errorf("ping-pong completed %d of %d rounds", p.done, rounds))
	}
}

// stream is a Fig. 6 posted-store stream: iters size-byte stores into a
// peer's DRAM, cycling over eight slots.
type stream struct {
	done tccluster.Time // when the closing fence retired
	sum  uint64         // FNV-1a digest of every store's completion time
}

// startStream starts a stream from node from into node to, closed by an
// Sfence when fence is set.
func startStream(c *tccluster.Cluster, from, to, size, iters int, fence bool) *stream {
	s := &stream{sum: fnvBasis}
	src := c.Node(from).Core()
	now := c.EngineFor(from).Now
	base := c.Node(to).MemBase() + 8<<20
	payload := make([]byte, size)
	var step func(i int)
	step = func(i int) {
		if i >= iters {
			if fence {
				src.Sfence(func() { s.done = now() })
			}
			return
		}
		src.StoreBlock(base+uint64(i%8)*uint64(size), payload, func(err error) {
			check(err)
			s.sum = fnvAdd(s.sum, uint64(now()))
			step(i + 1)
		})
	}
	step(0)
	return s
}

func runLatency(maxSize int) {
	t := &stats.Table{
		Title:   "tccbench latency (message-library ping-pong, virtual time)",
		Columns: []string{"size", "half RTT ns"},
	}
	for size := 8; size <= maxSize; size *= 2 {
		c := chain(2, 0)
		p := openPingpong(c, 0, 1, tccluster.DefaultMsgParams())
		if size > p.sAB.MaxMessage() {
			c.Close()
			break
		}
		const iters = 10
		p.runFor(c, size, iters, tccluster.Millisecond)
		c.Close()
		t.AddRow(stats.FormatSize(float64(size)),
			fmt.Sprintf("%.0f", (p.rtt/tccluster.Time(2*iters)).Nanos()))
	}
	t.Render(os.Stdout)
}

func runBW(maxSize int, bidir bool) {
	name, dirs := "unidirectional", 1
	if bidir {
		name, dirs = "bidirectional", 2
	}
	t := &stats.Table{
		Title:   fmt.Sprintf("tccbench %s bandwidth (raw posted stores, virtual time)", name),
		Columns: []string{"size", "MB/s"},
	}
	for size := 64; size <= maxSize; size *= 4 {
		c := chain(2, 0)
		iters := max(262144/size, 4)
		start := c.Now()
		var finish tccluster.Time
		streams := make([]*stream, dirs)
		for d := range streams {
			streams[d] = startStream(c, d, 1-d, size, iters, true)
		}
		c.Run()
		c.Close()
		for _, s := range streams {
			finish = max(finish, s.done)
		}
		mbs := float64(size*iters*dirs) / float64(finish-start) * 1e12 / 1e6
		t.AddRow(stats.FormatSize(float64(size)), fmt.Sprintf("%.0f", mbs))
	}
	t.Render(os.Stdout)
}

func runAllreduce(nodes int) {
	c := chain(nodes, 0)
	defer c.Close()
	w, err := c.NewWorld(tccluster.DefaultMPIConfig())
	check(err)
	t := &stats.Table{
		Title:   fmt.Sprintf("tccbench allreduce (%d nodes, virtual time)", nodes),
		Columns: []string{"vector doubles", "latency us"},
	}
	for _, n := range []int{1, 8, 64, 256} {
		vec := make([]float64, n)
		start := c.Now()
		pending := nodes
		var finish tccluster.Time
		for r := 0; r < nodes; r++ {
			w.Rank(r).Allreduce(vec, tccluster.Sum, func(_ []float64, err error) {
				check(err)
				pending--
				if pending == 0 {
					finish = c.Now()
				}
			})
		}
		c.Run()
		if pending != 0 {
			check(fmt.Errorf("allreduce incomplete"))
		}
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.2f", (finish-start).Micros()))
	}
	t.Render(os.Stdout)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tccbench:", err)
		stopProfiles()
		os.Exit(1)
	}
}
