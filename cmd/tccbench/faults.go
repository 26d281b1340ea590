// Fault benchmark: goodput and recovery behavior of the failure stack
// under a swept fault intensity. Two sweeps on a two-node chain:
//
//   - Outage sweep: a reliable channel streams fixed-size messages while
//     the campaign pulls the cable for an increasing duration. Reported
//     per point: goodput over the whole window, the longest delivery
//     stall (the receiver-visible recovery latency: outage plus
//     retraining plus the residual retransmit backoff), and the
//     retransmission work the outage cost.
//
//   - Degrade sweep: the raw (lossless-link) protocol under an
//     increasing injected CRC error rate, showing how link-level
//     retries eat goodput long before the link is declared dead.
//
// Every point is a fingerprint-only cell: its outcome is pure virtual
// time, so each point runs once and the baseline gate checks the
// fingerprint and nothing else.
package main

import (
	"fmt"
	"os"

	tccluster "repro"
	"repro/internal/stats"
)

// faultMeasureWindow is the virtual time each point streams for,
// starting right after boot. Outages land 1 ms in so every point has a
// healthy lead-in.
const (
	faultMeasureWindow = 6 * tccluster.Millisecond
	faultOutageLeadIn  = 1 * tccluster.Millisecond
	faultMsgBytes      = 256
	faultAckTimeout    = 20 * tccluster.Microsecond
)

// faultPoint is one sweep point's outcome.
type faultPoint struct {
	OutageUs     float64 `json:"outage_us"`
	Rate         float64 `json:"error_rate"`
	Delivered    int     `json:"delivered"`
	GoodputMBps  float64 `json:"goodput_mb_per_s"`
	MaxStallUs   float64 `json:"max_stall_us"` // longest gap between deliveries
	Retransmits  uint64  `json:"retransmits"`
	AckTimeouts  uint64  `json:"ack_timeouts"`
	AcksPosted   uint64  `json:"acks_posted"`
	MasterAborts uint64  `json:"master_aborts"`
	CRCRetries   uint64  `json:"crc_retries"`
}

// faultsSummary records the sweep parameters shared by every point.
type faultsSummary struct {
	MsgBytes     int     `json:"msg_bytes"`
	WindowNs     float64 `json:"window_ns"`
	AckTimeoutNs float64 `json:"ack_timeout_ns"`
}

// faultRun drives an unbounded chained send stream over a node 0 -> 1
// channel for the measure window on a two-node chain built with opts.
// Its checksum digests every delivery time; its detail is the point.
func faultRun(p faultPoint, par tccluster.MsgParams, opts ...tccluster.Option) cell {
	c := chain(2, 0, opts...)
	defer c.Close()
	s, r, err := c.OpenChannel(0, 1, par)
	check(err)
	start := c.Now()
	lastAt := start
	var maxStall tccluster.Time
	sum := uint64(fnvBasis)
	var serve func()
	serve = func() {
		r.Recv(func(_ []byte, err error) {
			if err != nil {
				return
			}
			maxStall = max(maxStall, c.Now()-lastAt)
			lastAt = c.Now()
			sum = fnvAdd(sum, uint64(lastAt))
			p.Delivered++
			serve()
		})
	}
	serve()
	var send func()
	send = func() {
		s.Send(make([]byte, faultMsgBytes), func(err error) {
			if err != nil {
				return // peer declared dead; stop offering load
			}
			send()
		})
	}
	m := measureCluster(c, func() {
		send()
		c.RunFor(faultMeasureWindow)
		r.Stop()
	})
	m.Checksum = sum
	st := s.Stats()
	p.GoodputMBps = float64(p.Delivered*faultMsgBytes) / (c.Now() - start).Seconds() / 1e6
	p.MaxStallUs = maxStall.Micros()
	p.Retransmits, p.AckTimeouts, p.AcksPosted = st.Retransmits, st.AckTimeouts, r.Stats().AcksPosted
	p.MasterAborts, p.CRCRetries = sumCounter(c, "nb.master_aborts"), sumCounter(c, "port.retries")
	m.Detail = p
	return m
}

// sumCounter totals every metrics counter with the given name.
func sumCounter(c *tccluster.Cluster, name string) uint64 {
	var total uint64
	for k, v := range c.Metrics().Counters {
		if k.Name == name {
			total += v
		}
	}
	return total
}

func runFaultsBench(int) (report, error) {
	rep := report{
		Meta: stats.NewBenchMeta(),
		Summary: faultsSummary{
			MsgBytes:     faultMsgBytes,
			WindowNs:     faultMeasureWindow.Nanos(),
			AckTimeoutNs: faultAckTimeout.Nanos(),
		},
	}
	t := &stats.Table{
		Title:   "tccbench faults: goodput vs cable outage (reliable channel) and injected CRC error rate (raw protocol), virtual time",
		Columns: []string{"point", "delivered", "goodput MB/s", "max stall us", "retransmits", "ack timeouts", "crc retries"},
	}
	add := func(name string, p faultPoint, par tccluster.MsgParams, opts ...tccluster.Option) {
		c := faultRun(p, par, opts...)
		c.Name = name
		p = c.Detail.(faultPoint)
		t.AddRow(name, fmt.Sprint(p.Delivered), fmt.Sprintf("%.1f", p.GoodputMBps), fmt.Sprintf("%.1f", p.MaxStallUs),
			fmt.Sprint(p.Retransmits), fmt.Sprint(p.AckTimeouts), fmt.Sprint(p.CRCRetries))
		rep.Cells = append(rep.Cells, c)
	}
	reliable := tccluster.DefaultMsgParams()
	reliable.Reliable = true
	reliable.AckTimeout = faultAckTimeout
	for _, outage := range []tccluster.Time{0, 50, 100, 200, 400, 800} {
		outage *= tccluster.Microsecond
		var opts []tccluster.Option
		if outage > 0 {
			opts = append(opts, tccluster.WithFaults(tccluster.LinkDownFor(0, faultOutageLeadIn, outage)))
		}
		add(fmt.Sprintf("outage-%.0fus", outage.Micros()), faultPoint{OutageUs: outage.Micros()}, reliable, opts...)
	}
	for _, rate := range []float64{0, 0.05, 0.1, 0.2, 0.4} {
		var opts []tccluster.Option
		if rate > 0 {
			// Degrade from (clamped) boot through the whole window.
			opts = append(opts, tccluster.WithFaults(
				tccluster.LinkDegrade(0, tccluster.Microsecond, 20*tccluster.Millisecond, rate)))
		}
		add(fmt.Sprintf("degrade-%.2f", rate), faultPoint{Rate: rate}, tccluster.DefaultMsgParams(), opts...)
	}
	t.Render(os.Stdout)
	return rep, nil
}
