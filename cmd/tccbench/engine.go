// Engine benchmark: event-queue throughput over a synthetic
// self-clocking workload and two full-stack workloads shaped like the
// paper's Fig. 6 (posted-store bandwidth) and Fig. 7 (message
// ping-pong). The full-stack cells gate events/s; selfclock measures the
// bare queue and is fingerprint-only.
package main

import (
	"fmt"
	"runtime"

	tccluster "repro"
	"repro/internal/sim"
	"repro/internal/stats"
)

// benchTicker is the synthetic workload's handler: it reschedules
// itself forever at a fixed period, so every Step is one pop + one
// push — the queue's steady state.
type benchTicker struct{ period sim.Time }

func (t *benchTicker) OnEvent(e *sim.Engine, _ sim.EventArg) {
	e.ScheduleAfter(t.period, t, sim.EventArg{})
}

// selfClock drives a pure-engine workload: 64 tickers with co-prime
// periods spanning near-bucket and far-heap horizons.
func selfClock(events uint64) cell {
	eng := sim.NewEngine()
	for i := 0; i < 64; i++ {
		period := sim.Time(300+i*37) * sim.Picosecond
		if i%16 == 15 {
			period = sim.Time(3+i) * sim.Microsecond // far-horizon tickers
		}
		t := &benchTicker{period: period}
		eng.ScheduleAfter(t.period, t, sim.EventArg{})
	}
	runtime.GC()
	return measure(eng.Fired, eng.Now, func() {
		for eng.Fired() < events {
			eng.Step()
		}
	})
}

// enginePingpong is the Fig. 7 shape: 64-byte ping-pong between two
// nodes, boot excluded. doorbell selects the opt-in parked-receiver mode
// instead of the paper's spin polling — a different receive model that
// elides the idle poll events, so its events/s is not comparable with
// the spin row; read sim_ns_per_wall_sec instead.
func enginePingpong(doorbell bool) cell {
	c := chain(2, 0)
	defer c.Close()
	par := tccluster.DefaultMsgParams()
	par.Doorbell = doorbell
	return openPingpong(c, 0, 1, par).runFor(c, 64, 500, 10*tccluster.Millisecond)
}

// engineStream is the Fig. 6 shape: a fenced stream of 64-byte posted
// stores into the neighbor's DRAM.
func engineStream() cell {
	c := chain(2, 0)
	defer c.Close()
	var s *stream
	m := measureCluster(c, func() {
		s = startStream(c, 0, 1, 64, 4096, true)
		c.Run()
	})
	if s.done == 0 {
		check(fmt.Errorf("posted-store stream never fenced"))
	}
	m.Checksum = s.sum
	return m
}

func runEngineBench(repeat int) (report, error) {
	rep := report{Meta: stats.NewBenchMeta()}
	add := func(name string, gated bool, body func() cell) {
		c := runCell(name, 0, repeat, body)
		if gated {
			c.Gated, c.GatedUnit = c.EventsPerSec, "events/s"
		}
		rep.Cells = append(rep.Cells, c)
	}
	add("selfclock", false, func() cell { return selfClock(2_000_000) })
	add("pingpong-64B", true, func() cell { return enginePingpong(false) })
	add("pingpong-64B-doorbell", true, func() cell { return enginePingpong(true) })
	add("posted-store-64B", true, engineStream)
	return rep, nil
}
