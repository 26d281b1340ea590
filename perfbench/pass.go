package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	tccluster "repro"
)

// simReps is how many reps the simulated end-to-end metrics are the
// mean of. Every rep runs its own seed-derived input, so the mean
// steadies metrics such as serve's p99 that vary between inputs; an
// end-to-end pass makes at least this many reps, whatever its budget.
// Simulated values carry no host noise, so the mean is the efficient
// estimate here, where host times use the median.
const simReps = 9

// profileHz is the traced run's CPU sampling rate, raised from pprof's
// 100 Hz so short set-up phases still collect enough samples.
const profileHz = 500

// minSetupProfile is the least set-up time a traced pass profiles: a
// workload whose set-up is quick sets up extra instances to reach it.
const minSetupProfile = 500 * time.Millisecond

// passOpts configure one sequence of reps.
type passOpts struct {
	budget  time.Duration // run reps until this much host time has passed
	reps    int           // or exactly this many reps, when > 0
	setups  int           // set-ups of a reuse workload (0: its default)
	traced  bool          // CPU-profile the pass, set-ups up front
	options []tccluster.Option
	heap    bool // sample the peak Go heap while reps run
	minReps int  // fewest reps a budgeted pass makes
}

// passRecord is what one pass measured.
type passRecord struct {
	setupS    []float64
	rates     []float64   // completed ops per host second, per rep
	simRates  []float64   // virtual ns per host second, per rep
	calRates  []float64   // calibrator events per host second, before each set-up and rep
	witness   repRecord   // the first rep
	sims      []repResult // the first simReps reps
	passFP    fingerprint
	attempted uint64
	failed    uint64
	completed uint64
	events    uint64
	runHostS  float64
	mallocs   uint64
	gcCycles  uint32
	peakHeap  uint64
	// first is the instance that ran the first rep.
	first instance
	// profiles of a traced pass, by phase.
	setupProf, runProf []byte
}

// repRecord is one measured rep.
type repRecord struct {
	res   repResult
	fp    fingerprint
	delta map[string]uint64
}

// fingerprint is a rep's simulated outcome: equal fingerprints mean the
// same simulation, event for event.
type fingerprint struct {
	Events         uint64            `json:"events"`
	FinalVirtualPS int64             `json:"final_virtual_ps"`
	LinkPkts       uint64            `json:"link_pkts"`
	LinkBytes      uint64            `json:"link_bytes"`
	NB             map[string]uint64 `json:"nb"`
	Checksum       uint64            `json:"checksum"`
}

// mark is the counter state a fingerprint is measured from.
type mark struct {
	counters map[string]uint64
	events   uint64
}

func markOf(c *tccluster.Cluster) mark {
	return mark{counters: counterTotals(c), events: c.EventsFired()}
}

// counterTotals sums the cluster's hardware counters over links and
// sockets, by name.
func counterTotals(c *tccluster.Cluster) map[string]uint64 {
	out := map[string]uint64{}
	for k, v := range c.Metrics().Counters {
		out[k.Name] += v
	}
	return out
}

// since returns the counter deltas and fingerprint from m to now.
func (m mark) since(c *tccluster.Cluster, checksum uint64) (map[string]uint64, fingerprint) {
	delta := map[string]uint64{}
	for k, v := range counterTotals(c) {
		if d := v - m.counters[k]; d != 0 {
			delta[k] = d
		}
	}
	fp := fingerprint{
		Events:         c.EventsFired() - m.events,
		FinalVirtualPS: int64(c.Now()),
		LinkPkts:       delta["port.pkts_sent"],
		LinkBytes:      delta["port.bytes_sent"],
		NB:             map[string]uint64{},
		Checksum:       checksum,
	}
	for k, v := range delta {
		if strings.HasPrefix(k, "nb.") {
			fp.NB[k] = v
		}
	}
	return delta, fp
}

// setPhase switches the calling goroutine's "phase" pprof label.
// Goroutines inherit labels when created, so the parallel executor's
// workers, which start on the first run, carry the run label.
func setPhase(phase string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("phase", phase)))
}

// runPass sets up instances of w and runs reps on them.
func runPass(w workload, sz sizes, seed uint64, po passOpts) (*passRecord, error) {
	rec := &passRecord{}
	if po.traced {
		setPhase(driverPhase)
		defer setPhase("")
	}
	cal := newCalibrator()
	// setupOne sets up the instance for rep i: reps of a non-reuse
	// workload each get their own seed, derived from the run's.
	setupOne := func(i int) (instance, error) {
		if po.traced {
			setPhase("setup")
			defer setPhase(driverPhase)
		} else {
			runtime.GC()
			rec.calRates = append(rec.calRates, cal.run())
		}
		s := seed
		if !w.reuse {
			s = repSeed(seed, i)
		}
		t0 := time.Now()
		inst, err := w.setup(sz, s, po.options)
		rec.setupS = append(rec.setupS, time.Since(t0).Seconds())
		return inst, err
	}
	var prof bytes.Buffer
	profiling := false
	startProf := func() error {
		prof.Reset()
		// pprof.StartCPUProfile would set 100 Hz; setting the rate
		// first makes it keep ours (it warns on standard error).
		runtime.SetCPUProfileRate(profileHz)
		err := pprof.StartCPUProfile(&prof)
		profiling = err == nil
		return err
	}
	stopProf := func() []byte {
		pprof.StopCPUProfile()
		profiling = false
		return append([]byte(nil), prof.Bytes()...)
	}
	defer func() {
		if profiling {
			pprof.StopCPUProfile()
		}
	}()

	// Instances set up before the first rep: a reuse workload's, or a
	// traced pass's (so the set-up profile covers set-up alone).
	var ready []instance
	if po.traced {
		if err := startProf(); err != nil {
			return nil, err
		}
	}
	switch {
	case w.reuse:
		n := po.setups
		if n == 0 {
			n = sz.AllreduceSetups
		}
		for i := 0; i < n; i++ {
			inst, err := setupOne(0)
			if err != nil {
				return nil, err
			}
			// Only the last set-up runs; an unrun cluster holds no
			// executor goroutines, so the others are garbage now.
			ready = []instance{inst}
		}
	case po.traced:
		for t0 := time.Now(); len(ready) < po.reps || time.Since(t0) < minSetupProfile; {
			inst, err := setupOne(len(ready))
			if err != nil {
				return nil, err
			}
			// Set-ups past the rep count only feed the profile.
			if len(ready) < po.reps {
				ready = append(ready, inst)
			}
		}
	}
	if po.traced {
		rec.setupProf = stopProf()
		if err := startProf(); err != nil {
			return nil, err
		}
	}

	var heap *heapSampler
	heapBuf := heapSample()
	if po.heap {
		heap = startHeapSampler()
		defer func() { rec.peakHeap = heap.stop() }()
	}
	var firstMark mark
	var checksum uint64
	start := time.Now()
	var runErr error
	for rep := 0; ; rep++ {
		if po.reps > 0 && rep >= po.reps {
			break
		}
		if po.reps == 0 && rep >= po.minReps && time.Since(start) >= po.budget {
			break
		}
		var inst instance
		switch {
		case w.reuse:
			inst = ready[0]
		case po.traced:
			inst, ready[rep] = ready[rep], nil
		default:
			var err error
			if inst, err = setupOne(rep); err != nil {
				return rec, err
			}
		}
		c := inst.cluster()
		if rep == 0 {
			rec.first = inst
			firstMark = markOf(c)
		}
		inst.prepare()
		m := markOf(c)
		vt0 := c.Now()
		if !po.traced {
			// A traced pass skips this: the collection's background
			// workers carry no label and would land in the run profile.
			runtime.GC()
		}
		rec.calRates = append(rec.calRates, cal.run())
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		if heap != nil {
			heap.active.Store(true)
		}
		if po.traced {
			setPhase("run")
		}
		t0 := time.Now()
		inst.run()
		host := time.Since(t0).Seconds()
		if po.traced {
			setPhase(driverPhase)
		}
		if heap != nil {
			heap.active.Store(false)
			heap.sample(heapBuf)
		}
		runtime.ReadMemStats(&ms1)

		res, err := inst.result()
		delta, fp := m.since(c, res.checksum)
		rec.attempted += res.attempted
		rec.failed += res.failed
		rec.completed += res.completed
		rec.events += fp.Events
		rec.runHostS += host
		rec.mallocs += ms1.Mallocs - ms0.Mallocs
		rec.gcCycles += ms1.NumGC - ms0.NumGC
		rec.rates = append(rec.rates, float64(res.completed)/host)
		rec.simRates = append(rec.simRates, float64(c.Now()-vt0)/float64(tccluster.Nanosecond)/host)
		checksum = splitmix64(checksum ^ res.checksum)
		if rep == 0 {
			rec.witness = repRecord{res: res, fp: fp, delta: delta}
		}
		if rep < simReps {
			rec.sims = append(rec.sims, res)
		}
		if inst == rec.first {
			_, rec.passFP = firstMark.since(c, checksum)
		}
		if err != nil {
			runErr = err
			break
		}
	}
	if po.traced {
		rec.runProf = stopProf()
	}
	return rec, runErr
}

// heapSampler tracks the peak live Go heap while active is set.
type heapSampler struct {
	active atomic.Bool
	done   chan struct{}
	wg     sync.WaitGroup
	peak   atomic.Uint64
}

// sample folds the current live heap into the peak.
func (h *heapSampler) sample(buf []metrics.Sample) {
	metrics.Read(buf)
	v := buf[0].Value.Uint64()
	for p := h.peak.Load(); v > p && !h.peak.CompareAndSwap(p, v); p = h.peak.Load() {
	}
}

func heapSample() []metrics.Sample {
	return []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		buf := heapSample()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-tick.C:
				if h.active.Load() {
					h.sample(buf)
				}
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	return h.peak.Load()
}

// endToEndRun measures the end-to-end metrics on an untraced pass.
func endToEndRun(w workload, sz sizes, seed uint64, seconds float64) (*output, error) {
	rec, err := runPass(w, sz, seed, passOpts{budget: secondsDur(seconds), heap: true, minReps: simReps})
	if rec == nil {
		return nil, err
	}
	out := &output{defs: endToEnd, attempted: rec.attempted, failed: rec.failed,
		witness: rec.witness.fp}
	out.meta.Reps, out.meta.Setups = len(rec.rates), len(rec.setupS)
	out.meta.SimSamples = rec.witness.res.lat.N
	out.meta.RepOpsPerS = rec.rates
	if len(rec.rates) == 0 {
		return out, err
	}
	out.meta.Workers = rec.first.cluster().Partitions()
	// Host times are reported in reference seconds: scaled by how much
	// faster than calRef the calibrator ran during this pass.
	calMed := median(rec.calRates)
	scale := calRef / calMed
	out.meta.CalPerS = calMed
	out.meta.RawSetupS = median(rec.setupS)
	out.meta.RawOpsPerS = median(rec.rates)
	out.meta.RawSimNsPerS = median(rec.simRates)
	sim := func(f func(r repResult) float64) float64 {
		var sum float64
		for _, r := range rec.sims {
			sum += f(r)
		}
		return sum / float64(len(rec.sims))
	}
	out.metrics = map[string]float64{
		"setup_s":      out.meta.RawSetupS / scale,
		"ops_per_s":    out.meta.RawOpsPerS * scale,
		"sim_ns_per_s": out.meta.RawSimNsPerS * scale,
		"peak_heap_mb": float64(rec.peakHeap) / (1 << 20),
		"sim_p50_us":   sim(func(r repResult) float64 { return r.lat.P50 / 1e6 }),
		"sim_p99_us":   sim(func(r repResult) float64 { return r.lat.P99 / 1e6 }),
		"sim_p999_us":  sim(func(r repResult) float64 { return r.lat.P999 / 1e6 }),
		"goodput_pct":  sim(func(r repResult) float64 { return pct(r.inSLO, r.attempted) }),
	}
	return out, err
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// calibrated is a pass's median rep rate scaled to reference seconds.
func calibrated(rec *passRecord) float64 {
	return median(rec.rates) * calRef / median(rec.calRates)
}

// repSeed is the input seed of rep i of a run seeded with seed.
func repSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	return splitmix64(seed ^ splitmix64(uint64(i)))
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

func perOp(v, ops uint64) float64 {
	if ops == 0 {
		return 0
	}
	return float64(v) / float64(ops)
}

// traceRun makes the untraced, traced and counting passes over the same
// reps and derives the per-layer metrics.
func traceRun(w workload, sz sizes, seed uint64, seconds float64) (*output, error) {
	plain, err := runPass(w, sz, seed, passOpts{budget: secondsDur(seconds / 3), minReps: 2})
	if err != nil {
		return nil, err
	}
	reps := len(plain.rates)
	traced, err := runPass(w, sz, seed, passOpts{reps: reps, traced: true,
		options: []tccluster.Option{tccluster.WithProfile()}})
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	counter := &kindCounter{}
	counted, err := runPass(w, sz, seed, passOpts{reps: 1, setups: 1,
		options: []tccluster.Option{tccluster.WithTracer(counter)}})
	if err != nil {
		return nil, fmt.Errorf("counting pass: %w", err)
	}
	if !reflect.DeepEqual(traced.passFP, plain.passFP) {
		return nil, fmt.Errorf("traced run diverged: fingerprint %+v, untraced %+v", traced.passFP, plain.passFP)
	}
	if !reflect.DeepEqual(counted.witness.fp, plain.witness.fp) {
		return nil, fmt.Errorf("counting run diverged: fingerprint %+v, untraced %+v", counted.witness.fp, plain.witness.fp)
	}

	out := &output{defs: perLayer, attempted: plain.attempted, failed: plain.failed,
		witness: plain.witness.fp, metrics: map[string]float64{}}
	out.meta.Reps, out.meta.Setups = reps, len(plain.setupS)
	out.meta.SimSamples = plain.witness.res.lat.N
	out.meta.Workers = plain.first.cluster().Partitions()
	m := out.metrics

	// Run-phase counts of the first rep.
	wr, d := plain.witness.res, plain.witness.delta
	ops := wr.completed
	m["sim.events_per_op"] = perOp(plain.witness.fp.Events, ops)
	m["ht.pkts_per_op"] = perOp(d["port.pkts_sent"], ops)
	m["ht.bytes_per_op"] = perOp(d["port.bytes_sent"], ops)
	m["nb.from_links_per_op"] = perOp(d["nb.pkts_from_links"], ops)
	m["ht.credit_stalls"] = float64(d["port.credit_stalls"])
	m["nb.master_aborts"] = float64(d["nb.master_aborts"])
	m["msg.fc_stalls"] = float64(counter.count(kindRingFull))
	m["msg.wrap_frames"] = float64(wr.wrapFrames)
	m["serve.local_pct"], m["serve.shed"], m["serve.timeouts"] = 0, 0, 0
	if s := wr.serve; s != nil {
		m["serve.local_pct"] = pct(s.Local, s.Requests)
		m["serve.shed"] = float64(s.Shed)
		m["serve.timeouts"] = float64(s.Timeouts)
	}
	m["fail_pct"] = pct(plain.failed, plain.attempted)

	// Host cost of the untraced run phase.
	m["sim.ns_per_event"] = perOp(uint64(plain.runHostS*1e9), plain.events) *
		median(plain.calRates) / calRef
	m["runtime.allocs_per_op"] = perOp(plain.mallocs, plain.completed)
	m["runtime.gc_cycles"] = float64(plain.gcCycles) / float64(reps)
	m["trace_overhead_pct"] = 100 * (1 - calibrated(traced)/calibrated(plain))

	// Simulated-time phases and executor accounting of the traced run,
	// over the reps its first instance ran.
	firstOps := traced.witness.res.completed
	if w.reuse {
		firstOps = traced.completed
	}
	sum := traced.first.cluster().Profile()
	phase := func(name string) tccluster.ProfilePhaseStats {
		for _, ph := range sum.Budget {
			if ph.Phase == name {
				return ph
			}
		}
		return tccluster.ProfilePhaseStats{}
	}
	m["ht.queue_ns_mean"] = phase("link.queue").MeanPS / 1e3
	m["ht.ser_ns_mean"] = phase("link.ser").MeanPS / 1e3
	m["nb.xbar_ns_mean"] = phase("nb.xbar").MeanPS / 1e3
	m["nb.mem_ns_mean"] = phase("mem.service").MeanPS / 1e3
	m["cpu.wcflush_ns_mean"] = phase("cpu.wcflush").MeanPS / 1e3
	m["msg.poll_per_op"] = perOp(phase("msg.poll").TotalPS, firstOps) / 1e3
	m["serve.request_ns_mean"] = phase("serve.request").MeanPS / 1e3
	m["core.windows"], m["core.occupancy"], m["core.imbalance"], m["core.serial_ms"], m["core.cut_links"] = 0, 0, 0, 0, 0
	if p := sum.PDES; p != nil {
		m["core.windows"] = float64(p.Windows) / float64(reps)
		m["core.occupancy"] = p.Occupancy
		m["core.imbalance"] = p.Imbalance
		m["core.serial_ms"] = p.SerialMS / float64(reps)
		m["core.cut_links"] = float64(p.CutLinks)
	}

	// Host-time shares of the traced run.
	runShares, n, err := layerShares(traced.runProf)
	if err != nil {
		return nil, err
	}
	setupShares, _, err := layerShares(traced.setupProf)
	if err != nil {
		return nil, err
	}
	out.meta.ProfSample = n
	for _, l := range layers {
		m[l+".host_pct"] = runShares[l]
		m[l+".setup_pct"] = setupShares[l]
	}
	return out, nil
}

// kindCounter is a tracer that only counts events by kind.
type kindCounter struct {
	n [64]atomic.Uint64
}

func (k *kindCounter) Emit(e tccluster.TraceEvent) {
	if int(e.Kind) < len(k.n) {
		k.n[e.Kind].Add(1)
	}
}

func (k *kindCounter) count(kind tccluster.TraceKind) uint64 { return k.n[kind].Load() }

// kindRingFull is the trace kind a message sender emits each time it
// finds the receiver's ring full and polls for flow control.
var kindRingFull = func() tccluster.TraceKind {
	for k := tccluster.TraceKind(1); k < 64; k++ {
		if k.String() == "ring-full" {
			return k
		}
	}
	panic("perfbench: no ring-full trace kind")
}()
