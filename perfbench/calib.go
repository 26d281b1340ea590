package main

import "time"

// calibrator is a fixed synthetic discrete-event loop that shares no
// code with the simulator: a binary-heap event queue over 4096 nodes
// whose handlers hash a 2 MB state table and schedule a follow-up event.
// Timing it beside the reps tracks how fast this machine runs this kind
// of work at the moment, independently of the program under test.
type calibrator struct {
	heap  []calEvent
	state []uint64
	rng   uint64
}

type calEvent struct {
	at   uint64
	node uint32
}

const (
	calNodes  = 4096
	calEvents = 200_000
	// calRef is the calibrator rate, in events per host second, that
	// defines a reference second: host-time metrics are scaled as if the
	// calibrator had run at exactly this rate (about its median rate on
	// the 2-vCPU x86-64 container of README.md's first measurements).
	calRef = 5e6
)

func newCalibrator() *calibrator {
	c := &calibrator{state: make([]uint64, calNodes*64), rng: 1}
	for i := 0; i < calNodes; i++ {
		c.push(calEvent{at: uint64(i), node: uint32(i)})
	}
	return c
}

func (c *calibrator) push(e calEvent) {
	c.heap = append(c.heap, e)
	i := len(c.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if c.heap[p].at <= c.heap[i].at {
			break
		}
		c.heap[p], c.heap[i] = c.heap[i], c.heap[p]
		i = p
	}
}

func (c *calibrator) pop() calEvent {
	h := c.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h[l].at < h[m].at {
			m = l
		}
		if r < n && h[r].at < h[m].at {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	c.heap = h
	return top
}

// run executes calEvents events and returns events per host second.
func (c *calibrator) run() float64 {
	t0 := time.Now()
	for i := 0; i < calEvents; i++ {
		e := c.pop()
		c.rng = splitmix64(c.rng)
		row := c.state[int(e.node)*64 : int(e.node)*64+64]
		row[c.rng&63] ^= c.rng
		row[(c.rng>>8)&63] += e.at
		next := uint32(c.rng>>20) % calNodes
		c.push(calEvent{at: e.at + 1 + c.rng>>54, node: next})
	}
	return calEvents / time.Since(t0).Seconds()
}
