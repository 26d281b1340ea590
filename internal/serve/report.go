package serve

import "repro/internal/hist"

// Window is one goodput accounting window of the run, merged across all
// client nodes. The fault campaigns read the crash story straight off
// this series: timeouts spike for one detection window, goodput dips,
// then recovers on the replicas.
type Window struct {
	Offered   uint64 `json:"offered"`
	Admitted  uint64 `json:"admitted"`
	Completed uint64 `json:"completed"`
	InSLO     uint64 `json:"in_slo"`
	Timeouts  uint64 `json:"timeouts"`
}

// Report is the full outcome of a serving run, merged across nodes in
// node-index order. Every field is derived from deterministic per-node
// state, so serial and parallel runs of the same deployment produce
// byte-identical reports.
type Report struct {
	Nodes    int    `json:"nodes"`
	Shards   int    `json:"shards"`
	ReplicaN int    `json:"replica_n"`
	Policy   string `json:"policy"`

	Requests   uint64 `json:"requests"`
	Admitted   uint64 `json:"admitted"`
	Shed       uint64 `json:"shed"`
	Completed  uint64 `json:"completed"`
	InSLO      uint64 `json:"in_slo"`
	Timeouts   uint64 `json:"timeouts"`
	Late       uint64 `json:"late_responses"`
	Unroutable uint64 `json:"unroutable"`
	Failovers  uint64 `json:"failovers"`
	DeadMarks  uint64 `json:"dead_marks"`

	Reads    uint64 `json:"reads"`
	Writes   uint64 `json:"writes"`
	Local    uint64 `json:"local_fast_path"`
	Served   uint64 `json:"served"`
	Replicas uint64 `json:"replicas_applied"`
	Bad      uint64 `json:"bad_frames"`

	P50PS      float64 `json:"p50_ps"`
	P99PS      float64 `json:"p99_ps"`
	P999PS     float64 `json:"p999_ps"`
	MeanPS     float64 `json:"mean_ps"`
	GoodputPct float64 `json:"goodput_pct"`

	Checksum uint64 `json:"checksum"`

	WindowPS int64    `json:"window_ps"`
	Windows  []Window `json:"windows,omitempty"`
}

// sum totals one counter across all nodes.
func (s *Service) sum(c int) uint64 {
	var t uint64
	for _, ns := range s.nodes {
		t += ns.ctr[c].Load()
	}
	return t
}

// Report merges every node's state into the run outcome. Call after the
// run has drained (it reads non-atomic window and fold state).
func (s *Service) Report() Report {
	r := Report{
		Nodes:    len(s.nodes),
		Shards:   s.cfg.Shards,
		ReplicaN: s.cfg.ReplicaN,
		Policy:   string(s.cfg.Policy),
		WindowPS: int64(s.cfg.Window),

		Requests:   s.sum(cArrivals),
		Admitted:   s.sum(cAdmitted),
		Shed:       s.sum(cShed),
		Completed:  s.sum(cCompleted),
		InSLO:      s.sum(cInSLO),
		Timeouts:   s.sum(cTimeouts),
		Late:       s.sum(cLate),
		Unroutable: s.sum(cUnroutable),
		Failovers:  s.sum(cFailovers),
		DeadMarks:  s.sum(cDeadMarks),
		Reads:      s.sum(cReads),
		Writes:     s.sum(cWrites),
		Local:      s.sum(cLocal),
		Served:     s.sum(cServed),
		Replicas:   s.sum(cReplicas),
		Bad:        s.sum(cBad),
	}

	var lat hist.Snapshot
	maxWin := 0
	for _, ns := range s.nodes {
		lat.Merge(ns.lat.Snapshot())
		if len(ns.windows) > maxWin {
			maxWin = len(ns.windows)
		}
		// Order-independent within a node (the fold is addition), made
		// node-position-sensitive here so swapped shard states cannot
		// cancel out.
		r.Checksum ^= mix64(ns.srvFold + mix64(uint64(ns.id)+ns.srvCount))
	}
	r.P50PS = lat.Quantile(0.50)
	r.P99PS = lat.Quantile(0.99)
	r.P999PS = lat.Quantile(0.999)
	r.MeanPS = lat.Mean()
	if r.Requests > 0 {
		r.GoodputPct = 100 * float64(r.InSLO) / float64(r.Requests)
	}

	r.Windows = make([]Window, maxWin)
	for _, ns := range s.nodes {
		for i, w := range ns.windows {
			r.Windows[i].Offered += w.offered
			r.Windows[i].Admitted += w.admitted
			r.Windows[i].Completed += w.completed
			r.Windows[i].InSLO += w.inSLO
			r.Windows[i].Timeouts += w.timeouts
		}
	}
	return r
}

// Snapshot is a mid-run view of the service, cheap enough for the
// monitor's scrape path: counter loads and histogram snapshots only
// (all single-writer atomics), no window or fold state.
type Snapshot struct {
	Requests  uint64  `json:"requests"`
	Completed uint64  `json:"completed"`
	InSLO     uint64  `json:"in_slo"`
	Timeouts  uint64  `json:"timeouts"`
	Shed      uint64  `json:"shed"`
	DeadMarks uint64  `json:"dead_marks"`
	P50PS     float64 `json:"p50_ps"`
	P99PS     float64 `json:"p99_ps"`
	P999PS    float64 `json:"p999_ps"`
	Goodput   float64 `json:"goodput_pct"`
}

// Snapshot assembles the mid-run view. Safe to call from the monitor's
// HTTP goroutine while the simulation is running.
func (s *Service) Snapshot() Snapshot {
	var sn Snapshot
	var lat hist.Snapshot
	for _, ns := range s.nodes {
		sn.Requests += ns.ctr[cArrivals].Load()
		sn.Completed += ns.ctr[cCompleted].Load()
		sn.InSLO += ns.ctr[cInSLO].Load()
		sn.Timeouts += ns.ctr[cTimeouts].Load()
		sn.Shed += ns.ctr[cShed].Load()
		sn.DeadMarks += ns.ctr[cDeadMarks].Load()
		lat.Merge(ns.lat.Snapshot())
	}
	sn.P50PS = lat.Quantile(0.50)
	sn.P99PS = lat.Quantile(0.99)
	sn.P999PS = lat.Quantile(0.999)
	if sn.Requests > 0 {
		sn.Goodput = 100 * float64(sn.InSLO) / float64(sn.Requests)
	}
	return sn
}
