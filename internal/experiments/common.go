// Package experiments contains the reproduction harness: one function
// per figure/table of the paper's evaluation (DESIGN.md's experiment
// index E1-E11). cmd/tccfig prints their output; the repository's
// benchmarks wrap them; EXPERIMENTS.md records their results against
// the paper's numbers.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/topology"
)

// parallel, when nonzero, runs every experiment cluster on that many
// partition workers (tccfig -parallel). Virtual-time results are
// identical to serial runs; only wall-clock behavior changes.
var parallel int

// SetParallel makes subsequently built experiment clusters parallel.
func SetParallel(n int) { parallel = n }

// buildChain boots an n-node chain with the given hardware config and
// installs custom kernels.
func buildChain(n int, cfg core.Config) (*core.Cluster, *kernel.OS, error) {
	topo, err := topology.Chain(n)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Parallel == 0 {
		cfg.Parallel = parallel
	}
	c, err := core.New(topo, cfg)
	if err != nil {
		return nil, nil, err
	}
	return c, kernel.Install(c, kernel.Options{SMCDisabled: true}), nil
}

// watchLanding calls fn at every store that becomes visible in node n's
// socket-0 DRAM and returns the function that removes the watch.
func watchLanding(n *core.Node, fn func(addr uint64, nBytes int)) func() {
	nbr := n.Machine().Procs[0].NB
	id := nbr.WatchWrites(0, math.MaxUint64, fn)
	return func() { nbr.Unwatch(id) }
}

// buildPair boots the two-node prototype.
func buildPair(cfg core.Config) (*core.Cluster, *kernel.OS, error) {
	return buildChain(2, cfg)
}

// streamWeak measures weakly ordered streaming: iters back-to-back
// block stores of size bytes each, one final fence; returns achieved
// bytes/second of virtual time.
func streamWeak(c *core.Cluster, src, dst int, size, iters int) (float64, error) {
	srcNode := c.Node(src)
	sender := srcNode.Core()
	base := c.Node(dst).MemBase() + 8<<20 // past the UC receive window
	payload := make([]byte, size)
	start := c.Now()
	var finish sim.Time
	var ferr error
	var round func(i int)
	round = func(i int) {
		if i >= iters {
			sender.Sfence(func() { finish = srcNode.Now() })
			return
		}
		sender.StoreBlock(base+uint64(i%8)*uint64(size), payload, func(err error) {
			if err != nil {
				ferr = err
				return
			}
			round(i + 1)
		})
	}
	round(0)
	c.Run()
	if ferr != nil {
		return 0, ferr
	}
	if finish == start {
		return 0, fmt.Errorf("experiments: zero-time transfer")
	}
	return float64(size*iters) / float64(finish-start) * 1e12, nil
}

// streamOrdered measures strictly ordered streaming: an Sfence after
// every fenceEveryLines cache lines (1 = the paper's ordered mode).
func streamOrdered(c *core.Cluster, src, dst int, size, iters, fenceEveryLines int) (float64, error) {
	srcNode := c.Node(src)
	sender := srcNode.Core()
	base := c.Node(dst).MemBase() + 8<<20
	line := make([]byte, cpu.LineSize)
	totalLines := iters * ((size + cpu.LineSize - 1) / cpu.LineSize)
	start := c.Now()
	var finish sim.Time
	var ferr error
	var round func(i int)
	round = func(i int) {
		if i >= totalLines {
			sender.Sfence(func() { finish = srcNode.Now() })
			return
		}
		addr := base + uint64(i%4096)*cpu.LineSize
		sender.Store(addr, line, func(err error) {
			if err != nil {
				ferr = err
				return
			}
			if (i+1)%fenceEveryLines == 0 {
				sender.Sfence(func() { round(i + 1) })
			} else {
				round(i + 1)
			}
		})
	}
	round(0)
	c.Run()
	if ferr != nil {
		return 0, ferr
	}
	bytes := totalLines * cpu.LineSize
	return float64(bytes) / float64(finish-start) * 1e12, nil
}

// streamUC measures uncombined streaming (the write-combining ablation):
// the remote window is remapped UC so every 8-byte store is its own
// packet.
func streamUC(c *core.Cluster, src, dst int, size, iters int) (float64, error) {
	sender := c.Node(src).Core()
	dstNode := c.Node(dst)
	// Remap the whole remote window UC on the sender.
	sender.MTRR().Clear()
	srcNode := c.Node(src)
	if err := sender.MTRR().SetRange(srcNode.MemBase(), srcNode.MemBase()+srcNode.MemSize()-1, cpu.WriteBack); err != nil {
		return 0, err
	}
	// Everything else (including the peer) defaults to UC.
	base := dstNode.MemBase() + 8<<20
	payload := make([]byte, size)
	start := c.Now()
	var finish sim.Time
	var ferr error
	var round func(i int)
	round = func(i int) {
		if i >= iters {
			finish = srcNode.Now()
			return
		}
		sender.StoreBlock(base, payload, func(err error) {
			if err != nil {
				ferr = err
				return
			}
			round(i + 1)
		})
	}
	round(0)
	c.Run()
	if ferr != nil {
		return 0, ferr
	}
	return float64(size*iters) / float64(finish-start) * 1e12, nil
}

// itersFor picks a streaming iteration count that keeps total virtual
// bytes near target without starving small sizes of repetitions.
func itersFor(size, target int) int {
	iters := target / size
	if iters < 4 {
		return 4
	}
	if iters > 4096 {
		return 4096
	}
	return iters
}
