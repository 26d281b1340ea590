// Engine benchmark: event-queue throughput over a synthetic
// self-clocking workload and two full-stack workloads shaped like the
// paper's Fig. 6 (posted-store bandwidth) and Fig. 7 (message
// ping-pong). Emits BENCH_engine.json with events/sec, ns/event,
// allocs/event and simulated-ns per wall second. Event counts and final
// virtual times are deterministic, so with -baseline they double as a
// behaviour fingerprint the committed file must match exactly.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	tccluster "repro"
	"repro/internal/sim"
	"repro/internal/stats"
)

type engineRun struct {
	Events         uint64  `json:"events"`
	WallSeconds    float64 `json:"wall_seconds"`
	EventsPerSec   float64 `json:"events_per_sec"`
	NsPerEvent     float64 `json:"ns_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	FinalVirtualNs float64 `json:"final_virtual_ns"`
	// SimNsPerWallSec is virtual nanoseconds simulated per wall-clock
	// second — the fixed-work throughput metric. Unlike events/sec it
	// survives event-count changes: an optimization that elides events
	// (doorbell wakeups replacing poll loops, fused pipeline stages)
	// lowers raw events/sec while simulating the same workload faster,
	// and this metric is the one that moves in the honest direction.
	SimNsPerWallSec float64 `json:"sim_ns_per_wall_sec"`
}

type engineWorkload struct {
	Name string `json:"name"`
	engineRun
}

type engineReport struct {
	Meta      stats.BenchMeta  `json:"meta"`
	Workloads []engineWorkload `json:"workloads"`
}

// measured wraps one benchmark run: the workload body advances the
// engine, and we record wall time, fired events, allocations and the
// final virtual time around it.
func measured(fired func() uint64, now func() sim.Time, body func()) engineRun {
	runtime.GC()
	var m0, m1 runtime.MemStats
	startFired := fired()
	startVirtual := now()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	body()
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	events := fired() - startFired
	r := engineRun{
		Events:         events,
		WallSeconds:    wall,
		FinalVirtualNs: now().Nanos(),
	}
	if wall > 0 {
		r.SimNsPerWallSec = (now() - startVirtual).Nanos() / wall
	}
	if events > 0 {
		r.EventsPerSec = float64(events) / wall
		r.NsPerEvent = wall * 1e9 / float64(events)
		r.AllocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / float64(events)
	}
	return r
}

// benchTicker is the synthetic workload's handler: it reschedules
// itself forever at a fixed period, so every Step is one pop + one
// push — the queue's steady state.
type benchTicker struct{ period sim.Time }

func (t *benchTicker) OnEvent(e *sim.Engine, _ sim.EventArg) {
	e.ScheduleAfter(t.period, t, sim.EventArg{})
}

// selfClockRun drives a pure-engine workload: 64 tickers with co-prime
// periods spanning near-bucket and far-heap horizons.
func selfClockRun(events uint64) engineRun {
	eng := sim.NewEngine()
	for i := 0; i < 64; i++ {
		period := sim.Time(300+i*37) * sim.Picosecond
		if i%16 == 15 {
			period = sim.Time(3+i) * sim.Microsecond // far-horizon tickers
		}
		t := &benchTicker{period: period}
		eng.ScheduleAfter(t.period, t, sim.EventArg{})
	}
	return measured(eng.Fired, eng.Now, func() {
		for eng.Fired() < events {
			eng.Step()
		}
	})
}

// pingpongRun is the Fig. 7 shape: message-library ping-pong between
// two nodes, timing the run phase (boot events excluded). doorbell
// selects the opt-in parked-receiver mode instead of the paper's
// default spin polling — a different receive model that elides the
// idle poll events entirely.
func pingpongRun(doorbell bool, rounds int) engineRun {
	topo, err := tccluster.Chain(2)
	check(err)
	c, err := tccluster.New(topo, tccluster.DefaultConfig())
	check(err)
	par := tccluster.DefaultMsgParams()
	par.Doorbell = doorbell
	sAB, rAB, err := c.OpenChannel(0, 1, par)
	check(err)
	sBA, rBA, err := c.OpenChannel(1, 0, par)
	check(err)
	var serve func()
	serve = func() {
		rAB.Recv(func(d []byte, err error) {
			if err != nil {
				return
			}
			sBA.Send(d, func(error) {})
			serve()
		})
	}
	serve()
	completed := 0
	var round func(i int)
	round = func(i int) {
		if i >= rounds {
			return
		}
		rBA.Recv(func(_ []byte, err error) {
			if err != nil {
				return
			}
			completed++
			round(i + 1)
		})
		sAB.Send(make([]byte, 64), func(error) {})
	}
	eng := c.Engine()
	r := measured(eng.Fired, eng.Now, func() {
		round(0)
		c.RunFor(10 * tccluster.Millisecond)
		rAB.Stop()
		rBA.Stop()
		c.Run()
	})
	if completed != rounds {
		check(fmt.Errorf("engine bench: pingpong %d of %d rounds", completed, rounds))
	}
	return r
}

// postStoreRun is the Fig. 6 shape: a stream of small posted stores
// into the neighbor's DRAM, fenced at the end.
func postStoreRun(iters int) engineRun {
	topo, err := tccluster.Chain(2)
	check(err)
	c, err := tccluster.New(topo, tccluster.DefaultConfig())
	check(err)
	src := c.Node(0).Core()
	base := c.Node(1).MemBase() + 8<<20
	payload := make([]byte, 64)
	fenced := false
	var step func(i int)
	step = func(i int) {
		if i >= iters {
			src.Sfence(func() { fenced = true })
			return
		}
		src.StoreBlock(base+uint64(i%8)*64, payload, func(err error) {
			check(err)
			step(i + 1)
		})
	}
	eng := c.Engine()
	r := measured(eng.Fired, eng.Now, func() {
		step(0)
		c.Run()
	})
	if !fenced {
		check(fmt.Errorf("engine bench: posted-store stream never fenced"))
	}
	return r
}

// bestOf reruns a measurement and keeps the fastest run. The full-stack
// workloads finish in milliseconds of wall time, so a single GC pause or
// scheduler hiccup can halve one run's events/sec; the minimum-over-
// repeats wall time is the stable statistic. Virtual time and event
// counts are deterministic across repeats, so the fingerprint check is
// unaffected by which repeat wins.
func bestOf(n int, run func() engineRun) engineRun {
	best := run()
	for i := 1; i < n; i++ {
		if r := run(); r.EventsPerSec > best.EventsPerSec {
			best = r
		}
	}
	return best
}

// baselineTolerance is how far full-stack throughput may fall below
// the committed baseline before the CI regression gate fails the run.
// Generous because CI runners and the baseline machine differ;
// the gate catches order-of-magnitude rot, not percent-level noise.
const baselineTolerance = 0.15

// checkBaseline compares this run against a committed baseline report.
// Every workload's event count and final virtual time must equal the
// baseline's exactly: both are deterministic, so a mismatch means the
// simulated behaviour changed and the committed file must be
// regenerated in the same change. It also returns an error when any
// full-stack workload's throughput drops more than baselineTolerance
// below the baseline. The synthetic selfclock workload is exempt from
// the throughput floor: it measures the bare queue, not the stack.
func checkBaseline(rep engineReport, base engineReport) error {
	baseBy := make(map[string]engineWorkload, len(base.Workloads))
	for _, w := range base.Workloads {
		baseBy[w.Name] = w
	}
	for _, w := range rep.Workloads {
		b, ok := baseBy[w.Name]
		if !ok {
			return fmt.Errorf("engine bench: %s missing from the baseline", w.Name)
		}
		if w.Events != b.Events || w.FinalVirtualNs != b.FinalVirtualNs {
			return fmt.Errorf("engine bench: %s fingerprint changed: %d events / %.3f ns, baseline %d events / %.3f ns",
				w.Name, w.Events, w.FinalVirtualNs, b.Events, b.FinalVirtualNs)
		}
		if w.Name == "selfclock" || b.EventsPerSec <= 0 {
			continue
		}
		floor := b.EventsPerSec * (1 - baselineTolerance)
		if w.EventsPerSec < floor {
			return fmt.Errorf("engine bench: %s regressed: %.0f events/s is %.0f%% below the committed baseline %.0f (floor %.0f)",
				w.Name, w.EventsPerSec, (1-w.EventsPerSec/b.EventsPerSec)*100, b.EventsPerSec, floor)
		}
	}
	return nil
}

func runEngineBench(out, cpuprofile, memprofile, baseline string) {
	if out == "" {
		out = "BENCH_engine.json"
	}
	// Load the baseline before running (and before the output write, so
	// -out and -baseline may name the same file).
	var base engineReport
	if baseline != "" {
		data, err := os.ReadFile(baseline)
		check(err)
		check(json.Unmarshal(data, &base))
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer func() { pprof.StopCPUProfile(); f.Close() }()
	}

	// Full-stack workloads are milliseconds of wall time each, so take
	// best-of-5 to keep the recorded numbers (and the baseline gate fed
	// by them) out of GC/scheduler noise. Selfclock runs long enough
	// that a single measurement is already stable.
	const repeats = 5
	rep := engineReport{Meta: stats.NewBenchMeta()}
	add := func(name string, r engineRun) {
		rep.Workloads = append(rep.Workloads, engineWorkload{Name: name, engineRun: r})
	}
	add("selfclock", selfClockRun(2_000_000))
	add("pingpong-64B", bestOf(repeats, func() engineRun { return pingpongRun(false, 500) }))
	// Same workload under the opt-in doorbell receive model: idle poll
	// events are elided, so raw events/sec is incomparable with the
	// spin-mode row — sim_ns_per_wall_sec is the metric to read here.
	add("pingpong-64B-doorbell", bestOf(repeats, func() engineRun { return pingpongRun(true, 500) }))
	add("posted-store-64B", bestOf(repeats, func() engineRun { return postStoreRun(4096) }))

	if memprofile != "" {
		f, err := os.Create(memprofile)
		check(err)
		runtime.GC()
		check(pprof.WriteHeapProfile(f))
		f.Close()
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	check(err)
	check(os.WriteFile(out, append(data, '\n'), 0o644))

	fmt.Printf("tccbench engine (%s, GOMAXPROCS=%d)\n", rep.Meta.GoVersion, rep.Meta.GOMAXPROCS)
	for _, w := range rep.Workloads {
		fmt.Printf("  %-21s %8d events %8.0f ev/s %7.1f ns/ev %6.2f allocs/ev %11.0f sim-ns/s\n",
			w.Name, w.Events, w.EventsPerSec, w.NsPerEvent, w.AllocsPerEvent, w.SimNsPerWallSec)
	}
	fmt.Printf("wrote %s\n", out)

	if baseline != "" {
		check(checkBaseline(rep, base))
		fmt.Printf("baseline check passed: fingerprints equal and full-stack throughput within %.0f%% of %s\n",
			baselineTolerance*100, baseline)
	}
}
