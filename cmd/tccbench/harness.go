// The shared harness every JSON benchmark family runs on. A family
// reports cells: one workload at one worker count (0 = the serial
// engine), each carrying a fingerprint of its simulated outcome and at
// most one gated throughput metric. runCell repeats a cell and keeps
// its fastest attempt, sweep adds the serial ≡ parallel check, trials
// interleaves the overhead families' configurations, and gate compares
// a run against a committed report.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	tccluster "repro"
	"repro/internal/stats"
)

// fingerprint is a cell's simulated outcome. It is deterministic, so it
// must be identical on every attempt, at every worker count and in the
// committed baseline: a change means the simulated behaviour moved, and
// the committed file must be regenerated in the same change.
type fingerprint struct {
	Events         uint64  `json:"events"`
	FinalVirtualNs float64 `json:"final_virtual_ns"`
	// CountersDigest is an FNV-1a digest of the hardware counters (link
	// port and northbridge) in sorted key order. A tracer's
	// event-derived counters are left out: they accumulate in the
	// Collector, which a benchmark may share between clusters.
	CountersDigest uint64 `json:"counters_digest"`
	// Checksum digests the workload's own result: round-trip times,
	// store completion times, reduced buffers or the serve report.
	Checksum uint64 `json:"checksum"`
}

// cell is one measured workload at one worker count.
type cell struct {
	Name    string `json:"name"`
	Workers int    `json:"workers"` // 0 = serial engine
	fingerprint
	WallSeconds    float64 `json:"wall_seconds"`
	EventsPerSec   float64 `json:"events_per_sec"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// SimNsPerWallSec is virtual nanoseconds simulated per wall second:
	// a fixed-work metric that, unlike events/s, survives optimizations
	// that elide events.
	SimNsPerWallSec float64 `json:"sim_ns_per_wall_sec"`
	// Gated is the throughput metric the baseline gate floors, in
	// GatedUnit (events/s, req/s or speedup vs serial). Zero leaves the
	// cell fingerprint-only.
	Gated     float64 `json:"gated,omitempty"`
	GatedUnit string  `json:"gated_unit,omitempty"`
	Detail    any     `json:"detail,omitempty"` // family-specific results
}

// report is what every JSON family writes: run metadata, the cells the
// gate checks, and a family-specific summary.
type report struct {
	Meta    stats.BenchMeta `json:"meta"`
	Cells   []cell          `json:"cells"`
	Summary any             `json:"summary,omitempty"`
}

// family runs one JSON benchmark at the given repeat count. Its error
// is the family's own gate (prof's overhead ceiling); it is reported
// after the report is written.
type family func(repeat int) (report, error)

// benchJSON runs a family, writes its report to out (when set) and
// gates it against the baseline report (when set). The baseline is read
// before the family runs, so out may name the baseline file, and the
// file is written before gating, so a failed gate still leaves the
// fresh numbers behind.
func benchJSON(name string, run family, repeat int, out, baseline string) error {
	var base *report
	if baseline != "" {
		data, err := os.ReadFile(baseline)
		if err != nil {
			return err
		}
		base = new(report)
		if err := json.Unmarshal(data, base); err != nil {
			return fmt.Errorf("%s: %w", baseline, err)
		}
	}
	rep, err := run(repeat)
	printCells(name, rep)
	if out != "" {
		data, jerr := json.MarshalIndent(rep, "", "  ")
		if jerr != nil {
			return jerr
		}
		if werr := os.WriteFile(out, append(data, '\n'), 0o644); werr != nil {
			return werr
		}
		fmt.Printf("wrote %s\n", out)
	}
	if base != nil {
		if gerr := gate(rep, *base); gerr != nil {
			err = errors.Join(err, gerr)
		} else {
			fmt.Printf("baseline check passed: %d cells match the fingerprints of %s, gated metrics within %.0f%%\n",
				len(rep.Cells), baseline, baselineTolerance*100)
		}
	}
	return err
}

// baselineTolerance is how far a cell's gated metric may fall below the
// committed baseline. Generous because runner hardware differs from the
// baseline machine: the gate catches structural rot, not percent-level
// noise.
const baselineTolerance = 0.15

// gate checks a run against a committed baseline report. Both must hold
// the same cells, and every cell's fingerprint must equal the
// baseline's exactly. A gated metric may not fall more than
// baselineTolerance below the baseline's — except on parallel cells
// (workers > 0) when this machine has fewer CPUs than the baseline
// machine had: a smaller runner cannot reproduce multi-core speedups,
// so that comparison would measure the hardware, not the code.
func gate(run, base report) error {
	key := func(c cell) string { return fmt.Sprintf("%s at %d workers", c.Name, c.Workers) }
	got := make(map[string]cell, len(run.Cells))
	for _, c := range run.Cells {
		got[key(c)] = c
	}
	fewerCPUs := run.Meta.NumCPU < base.Meta.NumCPU
	skipped := 0
	var errs []error
	for _, b := range base.Cells {
		k := key(b)
		c, ok := got[k]
		delete(got, k)
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("%s: missing from this run", k))
		case c.fingerprint != b.fingerprint:
			errs = append(errs, fmt.Errorf("%s: fingerprint changed: %+v, baseline %+v", k, c.fingerprint, b.fingerprint))
		case b.Gated <= 0:
		case b.Workers > 0 && fewerCPUs:
			skipped++
		case c.Gated < b.Gated*(1-baselineTolerance):
			errs = append(errs, fmt.Errorf("%s: %.4g %s is %.0f%% below the baseline %.4g (floor -%.0f%%)",
				k, c.Gated, b.GatedUnit, 100*(1-c.Gated/b.Gated), b.Gated, baselineTolerance*100))
		}
	}
	for _, c := range run.Cells {
		if _, extra := got[key(c)]; extra {
			errs = append(errs, fmt.Errorf("%s: missing from the baseline", key(c)))
		}
	}
	if skipped > 0 {
		fmt.Printf("baseline: %d parallel cells not floored (this machine has %d CPUs, the baseline had %d)\n",
			skipped, run.Meta.NumCPU, base.Meta.NumCPU)
	}
	return errors.Join(errs...)
}

// runCell measures a cell repeat times and keeps the fastest attempt.
// Every attempt must reproduce the first one's fingerprint: a cell that
// is not deterministic cannot be gated.
func runCell(name string, workers, repeat int, body func() cell) cell {
	var best cell
	for i := 0; i < max(repeat, 1); i++ {
		c := body()
		c.Name, c.Workers = name, workers
		if i == 0 {
			best = c
			continue
		}
		mustMatch(c, best, "is not reproducible")
		if c.WallSeconds < best.WallSeconds {
			best = c
		}
	}
	return best
}

// sweep runs a cell serially and then at each worker count. Every
// worker count must reproduce the serial fingerprint exactly: the
// parallel executor is a pure wall-clock knob.
func sweep(name string, workers []int, repeat int, body func(workers int) cell) []cell {
	cells := []cell{runCell(name, 0, repeat, func() cell { return body(0) })}
	for _, w := range workers {
		c := runCell(name, w, repeat, func() cell { return body(w) })
		mustMatch(c, cells[0], "diverged from serial")
		cells = append(cells, c)
	}
	return cells
}

func mustMatch(got, want cell, what string) {
	if got.fingerprint != want.fingerprint {
		check(fmt.Errorf("%s at %d workers %s: %+v vs %+v",
			got.Name, got.Workers, what, got.fingerprint, want.fingerprint))
	}
}

// measure runs body and returns what it did as a cell: events fired
// and virtual time reached, wall time and allocation rate. fired and
// now read a cluster's or a bare engine's counters.
func measure(fired func() uint64, now func() tccluster.Time, body func()) cell {
	var m0, m1 runtime.MemStats
	startFired, startVirtual := fired(), now()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	body()
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	c := cell{WallSeconds: wall}
	c.Events = fired() - startFired
	c.FinalVirtualNs = now().Nanos()
	if wall > 0 {
		c.EventsPerSec = float64(c.Events) / wall
		c.SimNsPerWallSec = (now() - startVirtual).Nanos() / wall
	}
	if c.Events > 0 {
		c.AllocsPerEvent = float64(m1.Mallocs-m0.Mallocs) / float64(c.Events)
	}
	return c
}

// measureCluster collects garbage, measures body on c and digests c's
// hardware counters.
func measureCluster(c *tccluster.Cluster, body func()) cell {
	runtime.GC()
	m := measure(c.EventsFired, c.Now, body)
	m.CountersDigest = countersDigest(c)
	return m
}

// countersDigest digests c's hardware counters in sorted key order.
func countersDigest(c *tccluster.Cluster) uint64 {
	var lines []string
	for k, v := range c.Metrics().Counters {
		if strings.HasPrefix(k.Name, "port.") || strings.HasPrefix(k.Name, "nb.") {
			lines = append(lines, fmt.Sprintf("%v=%d", k, v))
		}
	}
	sort.Strings(lines)
	return fnvBytes(fnvBasis, []byte(strings.Join(lines, "\n")))
}

const fnvBasis, fnvPrime = 14695981039346656037, 1099511628211

// fnvAdd folds v's eight little-endian bytes into the FNV-1a digest h.
func fnvAdd(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ v&0xff) * fnvPrime
		v >>= 8
	}
	return h
}

// fnvBytes folds b into the FNV-1a digest h.
func fnvBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime
	}
	return h
}

// trials is an interleaved overhead measurement. Every trial runs each
// configuration once, back to back, so machine load that drifts more
// slowly than one trial cancels out of the per-trial ratios.
type trials struct {
	names  []string
	best   []float64   // each configuration's fastest time
	ratios [][]float64 // ratios[i-1]: per-trial time of configuration i over i-1
	cells  []cell      // each configuration's fingerprint, equal on every trial
}

func newTrials(names ...string) *trials {
	n := len(names)
	return &trials{names: names, best: make([]float64, n), ratios: make([][]float64, n-1), cells: make([]cell, n)}
}

// run adds n trials; measure runs configuration i once and returns its
// time and cell.
func (t *trials) run(n int, measure func(i int) (float64, cell)) {
	for k := 0; k < n; k++ {
		prev := 0.0
		for i, name := range t.names {
			// Collect before building so one configuration's garbage is
			// not billed to the next one's measurement.
			runtime.GC()
			d, c := measure(i)
			c.Name = name
			if t.cells[i].Name != "" {
				mustMatch(c, t.cells[i], "is not reproducible")
			}
			t.cells[i] = c
			if t.best[i] == 0 || d < t.best[i] {
				t.best[i] = d
			}
			if i > 0 {
				t.ratios[i-1] = append(t.ratios[i-1], d/prev)
			}
			prev = d
		}
	}
}

// bestPct is configuration i's overhead over configuration i-1 in
// percent, comparing their fastest trials.
func (t *trials) bestPct(i int) float64 { return 100 * (t.best[i]/t.best[i-1] - 1) }

// medianPct is the median of configuration i's per-trial overheads over
// configuration i-1, in percent.
func (t *trials) medianPct(i int) float64 {
	vs := append([]float64(nil), t.ratios[i-1]...)
	sort.Float64s(vs)
	n := len(vs)
	return 100 * ((vs[(n-1)/2]+vs[n/2])/2 - 1) // the middle pair's mean when n is even
}

// printCells prints one line per cell under a title carrying the run
// metadata.
func printCells(title string, rep report) {
	fmt.Printf("tccbench %s (%s, GOMAXPROCS=%d, NumCPU=%d)\n",
		title, rep.Meta.GoVersion, rep.Meta.GOMAXPROCS, rep.Meta.NumCPU)
	for _, c := range rep.Cells {
		label := "serial"
		if c.Workers > 0 {
			label = fmt.Sprintf("%dw", c.Workers)
		}
		fmt.Printf("  %-28s %-6s %10d events %8.4fs %9.0f ev/s %5.2f allocs/ev %12.0f sim-ns/s",
			c.Name, label, c.Events, c.WallSeconds, c.EventsPerSec, c.AllocsPerEvent, c.SimNsPerWallSec)
		if c.Gated > 0 {
			fmt.Printf("  %.4g %s", c.Gated, c.GatedUnit)
		}
		fmt.Println()
	}
}
