package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	tccluster "repro"
	"repro/internal/stats"
)

// gateReport builds a report on a machine with cpus CPUs.
func gateReport(cpus int, cells ...cell) report {
	return report{Meta: stats.BenchMeta{NumCPU: cpus}, Cells: cells}
}

func gateCell(name string, workers int, events uint64, gated float64) cell {
	c := cell{Name: name, Workers: workers, Gated: gated, GatedUnit: "events/s"}
	c.Events, c.FinalVirtualNs, c.CountersDigest, c.Checksum = events, 1000, 7, 9
	return c
}

func wantGateError(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), substr) {
		t.Fatalf("gate error = %v, want one containing %q", err, substr)
	}
}

func TestGatePassesIdenticalRun(t *testing.T) {
	base := gateReport(2, gateCell("a", 0, 10, 100), gateCell("a", 2, 10, 1.5))
	if err := gate(base, base); err != nil {
		t.Fatal(err)
	}
}

func TestGateFingerprintMismatchFails(t *testing.T) {
	base := gateReport(2, gateCell("a", 0, 10, 0))
	for name, mutate := range map[string]func(*cell){
		"events":   func(c *cell) { c.Events++ },
		"virtual":  func(c *cell) { c.FinalVirtualNs += 0.001 },
		"counters": func(c *cell) { c.CountersDigest++ },
		"checksum": func(c *cell) { c.Checksum++ },
	} {
		t.Run(name, func(t *testing.T) {
			run := gateReport(2, gateCell("a", 0, 10, 0))
			mutate(&run.Cells[0])
			wantGateError(t, gate(run, base), "fingerprint changed")
		})
	}
}

func TestGateMissingCellFails(t *testing.T) {
	base := gateReport(2, gateCell("a", 0, 10, 0), gateCell("a", 2, 10, 0))
	wantGateError(t, gate(gateReport(2, gateCell("a", 0, 10, 0)), base), "a at 2 workers: missing from this run")
	run := gateReport(2, gateCell("a", 0, 10, 0), gateCell("a", 2, 10, 0), gateCell("b", 0, 10, 0))
	wantGateError(t, gate(run, base), "b at 0 workers: missing from the baseline")
}

func TestGateFloor(t *testing.T) {
	base := gateReport(2, gateCell("pp", 0, 10, 100), gateCell("pp", 4, 10, 2.0))
	ok := gateReport(2, gateCell("pp", 0, 10, 86), gateCell("pp", 4, 10, 1.71))
	if err := gate(ok, base); err != nil {
		t.Fatalf("within %.0f%%: %v", baselineTolerance*100, err)
	}
	wantGateError(t, gate(gateReport(2, gateCell("pp", 0, 10, 84), gateCell("pp", 4, 10, 2.0)), base),
		"pp at 0 workers: 84 events/s is 16% below")
	wantGateError(t, gate(gateReport(2, gateCell("pp", 0, 10, 100), gateCell("pp", 4, 10, 1.6)), base),
		"pp at 4 workers: 1.6 events/s is 20% below")
	// A fingerprint-only baseline cell has no floor.
	if err := gate(gateReport(2, gateCell("f", 0, 10, 0)), gateReport(2, gateCell("f", 0, 10, 0))); err != nil {
		t.Fatal(err)
	}
}

func TestGateFewerCPUsSkipsOnlyParallelFloors(t *testing.T) {
	base := gateReport(8, gateCell("pp", 0, 10, 100), gateCell("pp", 4, 10, 2.0))
	// Parallel cell far below its floor on a smaller machine: skipped.
	if err := gate(gateReport(2, gateCell("pp", 0, 10, 100), gateCell("pp", 4, 10, 0.5)), base); err != nil {
		t.Fatalf("parallel floor not skipped on a smaller machine: %v", err)
	}
	// The serial cell keeps its floor.
	wantGateError(t, gate(gateReport(2, gateCell("pp", 0, 10, 50), gateCell("pp", 4, 10, 2.0)), base),
		"pp at 0 workers")
	// Fingerprints are checked whatever the machine.
	wantGateError(t, gate(gateReport(2, gateCell("pp", 0, 10, 100), gateCell("pp", 4, 11, 2.0)), base),
		"fingerprint changed")
}

func TestBenchJSONReadsBaselineBeforeWriting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	data, err := json.Marshal(gateReport(2, gateCell("a", 0, 10, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := func(int) (report, error) { return gateReport(2, gateCell("a", 0, 11, 0)), nil }
	wantGateError(t, benchJSON("x", fresh, 1, path, path), "fingerprint changed")
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got report
	if err := json.Unmarshal(written, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != 1 || got.Cells[0].Events != 11 {
		t.Fatalf("out file holds %+v, want the fresh run", got.Cells)
	}
	// Against the file it just wrote, the same run passes.
	if err := benchJSON("x", fresh, 1, "", path); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyDriverHalfRTT(t *testing.T) {
	c := chain(2, 0)
	defer c.Close()
	p := openPingpong(c, 0, 1, tccluster.DefaultMsgParams())
	p.runFor(c, 8, 10, tccluster.Millisecond)
	if got := (p.rtt / 20).Nanos(); got != 214 {
		t.Fatalf("8-byte half RTT = %v ns, want 214", got)
	}
}

func TestEngineCellsReproducible(t *testing.T) {
	for name, body := range map[string]func() cell{
		"selfclock":        func() cell { return selfClock(10_000) },
		"pingpong-64B":     func() cell { return enginePingpong(false) },
		"posted-store-64B": engineStream,
	} {
		c := runCell(name, 0, 2, body)
		if c.Events == 0 || c.FinalVirtualNs == 0 || c.WallSeconds <= 0 {
			t.Fatalf("%s: empty cell %+v", name, c)
		}
		if name != "selfclock" && (c.CountersDigest == 0 || c.Checksum == 0) {
			t.Fatalf("%s: fingerprint without digests: %+v", name, c.fingerprint)
		}
	}
}

func TestParallelSweepSmallTorus(t *testing.T) {
	before := runtime.NumGoroutine()
	// Several partitions finish ranks in the same window, so a racy
	// completion count shows under -race.
	cells := sweep("allreduce-ring-torus64", []int{2, 4, 8}, 1, func(w int) cell {
		c := torus(8, 8, w)
		return measureParallel(c, 64, ringAllreduce(c, 64, 8))
	})
	if len(cells) != 4 || cells[1].Detail.(parallelDetail).Partitions != 2 || cells[1].Detail.(parallelDetail).LookaheadPs == 0 {
		t.Fatalf("cells = %+v", cells)
	}
	cells = sweep("pingpong-chain4", []int{2}, 1, func(w int) cell {
		c := chain(4, w)
		return measureParallel(c, 4, pingpongPairs(c, 5, rowPairs(4, 1)))
	})
	if cells[0].Checksum == 0 || cells[0].Checksum != cells[1].Checksum {
		t.Fatalf("checksums %x / %x", cells[0].Checksum, cells[1].Checksum)
	}
	// Every cluster the sweep built is closed: the executor goroutines
	// are gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFaultCells(t *testing.T) {
	reliable := tccluster.DefaultMsgParams()
	reliable.Reliable = true
	reliable.AckTimeout = faultAckTimeout
	c := runCell("outage-50us", 0, 2, func() cell {
		return faultRun(faultPoint{OutageUs: 50}, reliable,
			tccluster.WithFaults(tccluster.LinkDownFor(0, faultOutageLeadIn, 50*tccluster.Microsecond)))
	})
	if p := c.Detail.(faultPoint); p.Delivered == 0 || p.Retransmits == 0 || p.OutageUs != 50 {
		t.Fatalf("outage point %+v", p)
	}
	c = runCell("degrade-0.05", 0, 1, func() cell {
		return faultRun(faultPoint{Rate: 0.05}, tccluster.DefaultMsgParams(),
			tccluster.WithFaults(tccluster.LinkDegrade(0, tccluster.Microsecond, 20*tccluster.Millisecond, 0.05)))
	})
	if p := c.Detail.(faultPoint); p.CRCRetries == 0 {
		t.Fatalf("degrade point %+v", p)
	}
}

func TestServeSweepSmall(t *testing.T) {
	cfg := tccluster.DefaultServeConfig()
	cfg.RequestsPerNode = 40
	cells, rep := serveSweep("serve-chain16", []int{2}, 1, cfg, nil)
	if len(cells) != 2 || rep.Requests == 0 || cells[0].Gated <= 0 || cells[0].GatedUnit != "req/s" {
		t.Fatalf("cells = %+v, report requests %d", cells, rep.Requests)
	}
	if d := cells[1].Detail.(serveDetail); d.Requests != rep.Requests || d.Fault != nil {
		t.Fatalf("detail %+v", d)
	}
}

func TestTrialsInterleave(t *testing.T) {
	tr := newTrials("plain", "traced")
	// One Collector serves every traced trial, as in the monitor
	// benchmark: its accumulating counters stay out of the fingerprint.
	configs := [][]tccluster.Option{nil, {tccluster.WithTracer(tccluster.NewCollector(1 << 10))}}
	tr.run(2, func(i int) (float64, cell) {
		m := pingPongRounds(20, configs[i]...)
		return m.WallSeconds, m
	})
	if len(tr.ratios[0]) != 2 || tr.best[1] <= 0 || tr.cells[1].Name != "traced" {
		t.Fatalf("trials = %+v", tr)
	}
	// Tracing does not change the simulated run.
	if tr.cells[0].fingerprint != tr.cells[1].fingerprint || tr.cells[0].CountersDigest == 0 {
		t.Fatalf("traced run diverged: %+v vs %+v", tr.cells[1].fingerprint, tr.cells[0].fingerprint)
	}
}

func TestProfAllreduceRounds(t *testing.T) {
	best, c := allreduceRounds(4, 2)
	if best <= 0 || c.Events == 0 || c.Checksum == fnvBasis {
		t.Fatalf("best %v, cell %+v", best, c)
	}
}

func TestMedianPct(t *testing.T) {
	tr := newTrials("a", "b")
	tr.ratios[0] = []float64{1.3, 1.1, 1.2}
	if got := tr.medianPct(1); math.Abs(got-20) > 1e-9 {
		t.Fatalf("odd median = %v%%, want 20%%", got)
	}
	tr.ratios[0] = append(tr.ratios[0], 1.0)
	if got := tr.medianPct(1); math.Abs(got-15) > 1e-9 {
		t.Fatalf("even median = %v%%, want 15%%", got)
	}
}
