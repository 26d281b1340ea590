// Parallel benchmark: the same full-stack workloads executed serially
// and with the partitioned conservative engine at 1/2/4/8 workers, on an
// 8-node chain (Fig. 6/Fig. 7 shapes) and a 256-node 16×16 torus. Every
// worker count must reproduce the serial fingerprint; the gated metric
// is each parallel cell's speedup over the serial cell, only meaningful
// relative to the recorded GOMAXPROCS/NumCPU — a 1-CPU container cannot
// show parallel gains no matter how well the partitioning works.
package main

import (
	"fmt"
	"sync/atomic"

	tccluster "repro"
	"repro/internal/stats"
)

// parallelDetail records how a parallel cell's cluster was cut.
type parallelDetail struct {
	Nodes       int   `json:"nodes"`
	Partitions  int   `json:"partitions"`
	LookaheadPs int64 `json:"lookahead_ps"` // 0 on the serial engine
}

// measureParallel measures run — a set-up workload that runs c to
// completion and returns its checksum — closes c and records its
// partitioning.
func measureParallel(c *tccluster.Cluster, nodes int, run func() uint64) cell {
	defer c.Close()
	var sum uint64
	m := measureCluster(c, func() { sum = run() })
	m.Checksum = sum
	m.Detail = parallelDetail{Nodes: nodes, Partitions: c.Partitions(), LookaheadPs: int64(c.Lookahead())}
	return m
}

// pingpongPairs sets up one concurrent 64-byte ping-pong per node pair;
// its run digests every pair's round-trip times.
func pingpongPairs(c *tccluster.Cluster, rounds int, pairs [][2]int) func() uint64 {
	pps := make([]*pingpong, len(pairs))
	for i, ab := range pairs {
		pps[i] = openPingpong(c, ab[0], ab[1], tccluster.DefaultMsgParams())
		pps[i].start(64, rounds, true)
	}
	return func() uint64 {
		c.Run()
		sum := uint64(fnvBasis)
		for _, p := range pps {
			p.mustComplete(rounds)
			sum = fnvAdd(sum, p.sum)
		}
		return sum
	}
}

// rowPairs pairs the nodes of each of h rows of w with their right-hand
// neighbor. On a chain (h = 1) that is the Fig. 7 shape spread over the
// whole cluster, so every partition owns live traffic and the cross-cut
// links carry the pairs the partition boundary splits; on a torus,
// w*h/2 ping-pongs stay almost entirely partition-local under a
// row-contiguous cut — the shape where adaptive windows and a clean
// graph cut pay off most.
func rowPairs(w, h int) [][2]int {
	var pairs [][2]int
	for y := 0; y < h; y++ {
		for x := 0; x+1 < w; x += 2 {
			pairs = append(pairs, [2]int{y*w + x, y*w + x + 1})
		}
	}
	return pairs
}

// ringStream is the Fig. 6 shape on a ring of stores: every node
// streams posted 64-byte blocks into its right neighbor's DRAM, so the
// store traffic crosses every link including the partition cuts.
func ringStream(c *tccluster.Cluster, n, iters int) func() uint64 {
	streams := make([]*stream, n)
	for i := range streams {
		streams[i] = startStream(c, i, (i+1)%n, 64, iters, false)
	}
	return func() uint64 {
		c.Run()
		sum := uint64(fnvBasis)
		for _, s := range streams {
			sum = fnvAdd(sum, s.sum)
		}
		return sum
	}
}

// ringAllreduce is a ring allreduce over n nodes in rank order: every
// rank folds its left neighbor's 64-byte chunk into its own and passes
// the result on, steps times, all ranks advancing concurrently — the
// all-links-busy collective shape, with every partition cut carried by
// the ring. Ranks finish on partition worker goroutines, hence the
// atomic count. Its run digests the final rank buffers.
func ringAllreduce(c *tccluster.Cluster, n, steps int) func() uint64 {
	senders := make([]*tccluster.Sender, n)
	receivers := make([]*tccluster.Receiver, n)
	for i := 0; i < n; i++ {
		s, r, err := c.OpenChannel(i, (i+1)%n, tccluster.DefaultMsgParams())
		check(err)
		senders[i] = s
		receivers[(i+1)%n] = r
	}
	var completed atomic.Int64
	bufs := make([][]byte, n)
	for i := 0; i < n; i++ {
		buf := make([]byte, 64)
		buf[0] = byte(i)
		bufs[i] = buf
		send, recv := senders[i], receivers[i]
		var step func(s int)
		step = func(s int) {
			if s >= steps {
				completed.Add(1)
				return
			}
			recv.Recv(func(d []byte, err error) {
				if err != nil {
					return
				}
				for k := range buf {
					buf[k] += d[k]
				}
				step(s + 1)
			})
			send.Send(buf, func(error) {})
		}
		step(0)
	}
	return func() uint64 {
		c.Run()
		if got := completed.Load(); got != int64(n) {
			check(fmt.Errorf("%d of %d ranks completed the ring", got, n))
		}
		sum := uint64(fnvBasis)
		for _, b := range bufs {
			sum = fnvBytes(sum, b)
		}
		return sum
	}
}

func runParallelBench(repeat int) (report, error) {
	const chainN, torusW, torusH = 8, 16, 16
	workers := []int{1, 2, 4, 8}
	rep := report{Meta: stats.NewBenchMeta()}
	add := func(name string, body func(workers int) cell) {
		cells := sweep(name, workers, repeat, body)
		for i := range cells[1:] {
			c := &cells[i+1]
			c.Gated, c.GatedUnit = cells[0].WallSeconds/c.WallSeconds, "speedup vs serial"
		}
		rep.Cells = append(rep.Cells, cells...)
	}
	add("pingpong-64B", func(w int) cell {
		c := chain(chainN, w)
		return measureParallel(c, chainN, pingpongPairs(c, 200, rowPairs(chainN, 1)))
	})
	add("stream-64B-ring", func(w int) cell {
		c := chain(chainN, w)
		return measureParallel(c, chainN, ringStream(c, chainN, 512))
	})
	add("pingpong-mesh-torus256", func(w int) cell {
		c := torus(torusW, torusH, w)
		return measureParallel(c, torusW*torusH, pingpongPairs(c, 20, rowPairs(torusW, torusH)))
	})
	add("allreduce-ring-torus256", func(w int) cell {
		c := torus(torusW, torusH, w)
		return measureParallel(c, torusW*torusH, ringAllreduce(c, torusW*torusH, 32))
	})
	return rep, nil
}
