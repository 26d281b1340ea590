// The monitor benchmark quantifies what live monitoring costs on top of
// tracing: the same ping-pong workload runs with tracing off, with a
// Collector installed, and with the Collector plus the full monitor
// stack (sampling hook, flight recorder, watchdog, HTTP listener). The
// contract tracked in BENCH_monitor.json is that monitoring stays
// within a few percent of tracer-only — observability must be cheap
// enough to leave on.
package main

import (
	"fmt"

	tccluster "repro"
	"repro/internal/stats"
)

type monitorSummary struct {
	Rounds            int     `json:"rounds"`
	Trials            int     `json:"trials"`
	BaselineNsPerOp   float64 `json:"baseline_ns_per_op"`
	TracerNsPerOp     float64 `json:"tracer_ns_per_op"`
	MonitorNsPerOp    float64 `json:"monitor_ns_per_op"`
	TracerOverheadPct float64 `json:"tracer_overhead_pct_vs_baseline"`
	MonitorPct        float64 `json:"monitor_overhead_pct_vs_tracer"`
}

// pingPongRounds drives rounds of 64-byte ping-pong on a fresh 2-node
// cluster built with opts, one round at a time: each round arms one
// echo, sends, and runs the cluster to quiescence, so no receiver polls
// between rounds. The cell's checksum digests the round-trip times.
func pingPongRounds(rounds int, opts ...tccluster.Option) cell {
	c := chain(2, 0, opts...)
	defer c.Close()
	p := openPingpong(c, 0, 1, tccluster.DefaultMsgParams())
	payload := make([]byte, 64)
	sum := uint64(fnvBasis)
	// measure, not measureCluster: no collection between boot and the
	// first round, so the overhead ratios stay comparable with earlier
	// BENCH_monitor.json files.
	m := measure(c.EventsFired, c.Now, func() {
		for i := 0; i < rounds; i++ {
			sent, done := c.Now(), false
			p.rAB.Recv(func(d []byte, err error) {
				if err != nil {
					return
				}
				p.rBA.Recv(func(_ []byte, err error) {
					done = err == nil
					sum = fnvAdd(sum, uint64(c.Now()-sent))
				})
				p.sBA.Send(d, func(error) {})
			})
			p.sAB.Send(payload, func(error) {})
			c.Run()
			if !done {
				check(fmt.Errorf("monitor bench: ping-pong round %d lost", i))
			}
		}
	})
	m.CountersDigest, m.Checksum = countersDigest(c), sum
	return m
}

func runMonitorBench(int) (report, error) {
	const rounds, n = 2000, 7
	// Each configuration adds to the one before: the tracer, then the
	// monitor stack. Ratios are taken per trial and the median kept,
	// which discards outlier trials.
	// Each configuration's options, Collector included, are built once
	// and reused by every trial.
	t := newTrials("pingpong-64B", "pingpong-64B+tracer", "pingpong-64B+monitor")
	configs := [][]tccluster.Option{
		nil,
		{tccluster.WithTracer(tccluster.NewCollector(1 << 14))},
		{tccluster.WithTracer(tccluster.NewCollector(1 << 14)),
			tccluster.WithMonitor("127.0.0.1:0")},
	}
	t.run(n, func(i int) (float64, cell) {
		m := pingPongRounds(rounds, configs[i]...)
		return m.WallSeconds * 1e9 / rounds, m
	})
	sum := monitorSummary{
		Rounds:            rounds,
		Trials:            n,
		BaselineNsPerOp:   t.best[0],
		TracerNsPerOp:     t.best[1],
		MonitorNsPerOp:    t.best[2],
		TracerOverheadPct: t.medianPct(1),
		MonitorPct:        t.medianPct(2),
	}
	fmt.Printf("monitor bench: baseline %.0f ns/op, tracer %+.1f%%, monitor %+.1f%% vs tracer\n",
		sum.BaselineNsPerOp, sum.TracerOverheadPct, sum.MonitorPct)
	return report{Meta: stats.NewBenchMeta(), Cells: t.cells, Summary: sum}, nil
}
