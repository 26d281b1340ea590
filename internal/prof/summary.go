package prof

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/hist"
	"repro/internal/sim"
	"repro/internal/trace"
)

// PhaseStats is one phase's aggregate in a summary. Virtual-time
// quantities (counts, totals, quantiles) are deterministic: two runs
// of the same scenario produce identical values regardless of executor.
type PhaseStats struct {
	Phase   string  `json:"phase"`
	Count   uint64  `json:"count"`
	TotalPS uint64  `json:"total_ps"`
	MeanPS  float64 `json:"mean_ps"`
	P50PS   float64 `json:"p50_ps"`
	P99PS   float64 `json:"p99_ps"`
}

// LinkSummary is one external link's phase breakdown.
type LinkSummary struct {
	Link    int          `json:"link"`
	TotalPS uint64       `json:"total_ps"`
	Phases  []PhaseStats `json:"phases"`
}

// NodeSummary is one node's pipeline-phase breakdown.
type NodeSummary struct {
	Node    int          `json:"node"`
	TotalPS uint64       `json:"total_ps"`
	Phases  []PhaseStats `json:"phases"`
}

// CriticalHop ranks one link in the critical-path summary: how much of
// the cluster-wide link-attributed time it absorbed and which phase
// dominates it. For a collective, the top entry names the hop that
// bounds the operation.
type CriticalHop struct {
	Link     int     `json:"link"`
	TotalPS  uint64  `json:"total_ps"`
	SharePct float64 `json:"share_pct"`
	Dominant string  `json:"dominant_phase"`
}

// Summary is the renderable, JSON-marshalable form of a profiled run:
// the paper-style latency budget, per-link and per-node breakdowns, a
// critical-path ranking, and (for parallel runs) the PDES runtime
// accounting.
type Summary struct {
	// Budget is the cluster-wide per-phase latency budget, link phases
	// first then node phases, zero-count phases omitted.
	Budget       []PhaseStats         `json:"budget"`
	Links        []LinkSummary        `json:"links,omitempty"`
	Nodes        []NodeSummary        `json:"nodes,omitempty"`
	CriticalPath []CriticalHop        `json:"critical_path,omitempty"`
	PDES         *sim.ParallelSummary `json:"pdes,omitempty"`
}

// maxCriticalHops bounds the critical-path ranking so big-topology
// summaries stay readable; the full per-link table is still present.
const maxCriticalHops = 8

func phaseStats(name string, s hist.Snapshot) PhaseStats {
	return PhaseStats{
		Phase:   name,
		Count:   s.Count,
		TotalPS: s.Sum,
		MeanPS:  s.Mean(),
		P50PS:   s.Quantile(0.5),
		P99PS:   s.Quantile(0.99),
	}
}

// Summary assembles the current state of every histogram plus the
// attached PDES accounting. Safe mid-run.
func (p *Profiler) Summary() Summary {
	var out Summary
	if p == nil {
		return out
	}
	// Cluster-wide budget: merge snapshots across links / nodes per
	// phase. Quantiles of a merged phase come from summed buckets.
	for ph := LinkPhase(0); ph < NumLinkPhases; ph++ {
		var merged hist.Snapshot
		for i := range p.links {
			merged.Merge(p.links[i].Phase(ph))
		}
		if merged.Count > 0 {
			out.Budget = append(out.Budget, phaseStats(ph.String(), merged))
		}
	}
	for ph := NodePhase(0); ph < NumNodePhases; ph++ {
		var merged hist.Snapshot
		for i := range p.nodes {
			merged.Merge(p.nodes[i].Phase(ph))
		}
		if merged.Count > 0 {
			out.Budget = append(out.Budget, phaseStats(ph.String(), merged))
		}
	}

	var linkTotal uint64
	for i := range p.links {
		ls := LinkSummary{Link: i}
		for ph := LinkPhase(0); ph < NumLinkPhases; ph++ {
			s := p.links[i].Phase(ph)
			if s.Count == 0 {
				continue
			}
			ls.TotalPS += s.Sum
			ls.Phases = append(ls.Phases, phaseStats(ph.String(), s))
		}
		if len(ls.Phases) > 0 {
			out.Links = append(out.Links, ls)
			linkTotal += ls.TotalPS
		}
	}
	for i := range p.nodes {
		ns := NodeSummary{Node: i}
		for ph := NodePhase(0); ph < NumNodePhases; ph++ {
			s := p.nodes[i].Phase(ph)
			if s.Count == 0 {
				continue
			}
			ns.TotalPS += s.Sum
			ns.Phases = append(ns.Phases, phaseStats(ph.String(), s))
		}
		if len(ns.Phases) > 0 {
			out.Nodes = append(out.Nodes, ns)
		}
	}

	// Critical path: links ranked by attributed time, dominant phase
	// named. Ties break on link index so the ranking is deterministic.
	ranked := append([]LinkSummary(nil), out.Links...)
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].TotalPS != ranked[j].TotalPS {
			return ranked[i].TotalPS > ranked[j].TotalPS
		}
		return ranked[i].Link < ranked[j].Link
	})
	for _, ls := range ranked {
		if len(out.CriticalPath) >= maxCriticalHops || ls.TotalPS == 0 {
			break
		}
		dom := ls.Phases[0]
		for _, ph := range ls.Phases[1:] {
			if ph.TotalPS > dom.TotalPS {
				dom = ph
			}
		}
		hop := CriticalHop{Link: ls.Link, TotalPS: ls.TotalPS, Dominant: dom.Phase}
		if linkTotal > 0 {
			hop.SharePct = 100 * float64(ls.TotalPS) / float64(linkTotal)
		}
		out.CriticalPath = append(out.CriticalPath, hop)
	}

	if p.pstats != nil {
		s := p.pstats.Summary()
		out.PDES = &s
	}
	return out
}

// FormatPS renders picoseconds with an adaptive unit.
func FormatPS(ps float64) string {
	switch {
	case ps >= 1e6:
		return fmt.Sprintf("%.2fus", ps/1e6)
	case ps >= 1e3:
		return fmt.Sprintf("%.1fns", ps/1e3)
	default:
		return fmt.Sprintf("%.0fps", ps)
	}
}

// WriteText renders the summary as the human-readable latency budget:
// the cluster-wide phase table, the critical-path ranking, and the
// PDES accounting when present. The budget and critical-path sections
// are deterministic; the PDES section carries wall-clock numbers.
func (s *Summary) WriteText(w io.Writer) (err error) {
	var out strings.Builder
	defer func() { _, err = io.WriteString(w, out.String()) }()
	if len(s.Budget) == 0 {
		out.WriteString("profile: no observations\n")
		return
	}
	var total uint64
	for _, ph := range s.Budget {
		total += ph.TotalPS
	}
	fmt.Fprintf(&out, "latency budget (per-phase, cluster-wide):\n")
	fmt.Fprintf(&out, "  %-12s %12s %10s %10s %10s %7s\n", "phase", "count", "mean", "p50", "p99", "share")
	for _, ph := range s.Budget {
		share := 0.0
		if total > 0 {
			share = 100 * float64(ph.TotalPS) / float64(total)
		}
		fmt.Fprintf(&out, "  %-12s %12d %10s %10s %10s %6.1f%%\n",
			ph.Phase, ph.Count, FormatPS(ph.MeanPS), FormatPS(ph.P50PS), FormatPS(ph.P99PS), share)
	}
	if len(s.CriticalPath) > 0 {
		fmt.Fprintf(&out, "critical path (links by attributed time):\n")
		for _, hop := range s.CriticalPath {
			fmt.Fprintf(&out, "  link %-3d %10s %6.1f%%  dominant %s\n",
				hop.Link, FormatPS(float64(hop.TotalPS)), hop.SharePct, hop.Dominant)
		}
	}
	if s.PDES != nil {
		fmt.Fprintf(&out, "pdes: %d windows, occupancy %.2f, imbalance %.2f, serial %.2fms, span %.2fms\n",
			s.PDES.Windows, s.PDES.Occupancy, s.PDES.Imbalance, s.PDES.SerialMS, s.PDES.SpanMS)
		if s.PDES.CutLinks > 0 {
			fmt.Fprintf(&out, "  cut: %d links crossing, weight %.3f\n",
				s.PDES.CutLinks, s.PDES.CutWeight)
		}
		fmt.Fprintf(&out, "  windows: %d dirty flips, %d widened past 2x lookahead, mean width %.1fns\n",
			s.PDES.DirtyFlips, s.PDES.WideWindows, s.PDES.MeanWindowNs)
		for _, b := range s.PDES.WindowWidthHist {
			if b.UpToNs >= 1e15 {
				// The overflow bucket: fast-forward windows bounded only
				// by the run deadline, not by any peer.
				fmt.Fprintf(&out, "    width unbounded: %d\n", b.Count)
				continue
			}
			fmt.Fprintf(&out, "    width <= %.1fns: %d\n", b.UpToNs, b.Count)
		}
		for _, ps := range s.PDES.Partitions {
			fmt.Fprintf(&out, "  partition %d: %d events, busy %.2fms, barrier wait %.2fms, %d active windows\n",
				ps.Partition, ps.Events, ps.BusyMS, ps.BarrierWaitMS, ps.ActiveWindows)
		}
	}
	return
}

// Metrics renders the per-link and per-node phase histograms and the
// PDES accounting as a trace.Snapshot, the shape monitor.WritePrometheus
// exposes on /profile?format=prometheus. Every phase of every link and
// node is present from the start, empty or not, so a scrape never
// misses a series. A phase histogram is named prof.<phase>_ps and
// scoped to its link (prof.link.ser_ps, Link i) or node
// (prof.nb.xbar_ps, Node i). PDES series are prof.pdes.*: per
// partition ones carry the partition in Node, mailbox_posts the
// consumer partition in Link, and windows_by_width the bit length of
// the window width in picoseconds in Chan. The snapshot stays out of
// Cluster.Metrics, so profiling never changes that call's counters.
func (p *Profiler) Metrics() trace.Snapshot {
	s := trace.NewSnapshot()
	if p == nil {
		return s
	}
	for i := range p.links {
		for ph := LinkPhase(0); ph < NumLinkPhases; ph++ {
			s.Histograms[trace.Key{Name: "prof." + ph.String() + "_ps", Link: i}] = p.links[i].Phase(ph)
		}
	}
	for i := range p.nodes {
		for ph := NodePhase(0); ph < NumNodePhases; ph++ {
			s.Histograms[trace.Key{Name: "prof." + ph.String() + "_ps", Node: i}] = p.nodes[i].Phase(ph)
		}
	}
	if p.pstats == nil {
		return s
	}
	d := p.pstats.Summary()
	key := func(name string) trace.Key { return trace.Key{Name: "prof.pdes." + name} }
	s.Counters[key("windows")] = d.Windows
	s.Counters[key("dirty_flips")] = d.DirtyFlips
	s.Counters[key("wide_windows")] = d.WideWindows
	s.Gauges[key("occupancy")] = d.Occupancy
	s.Gauges[key("imbalance")] = d.Imbalance
	s.Gauges[key("mean_window_ns")] = d.MeanWindowNs
	if d.CutLinks > 0 {
		s.Gauges[key("cut_links")] = float64(d.CutLinks)
		s.Gauges[key("cut_weight")] = d.CutWeight
	}
	for _, ps := range d.Partitions {
		s.Gauges[trace.Key{Name: "prof.pdes.partition_busy_ms", Node: ps.Partition}] = ps.BusyMS
		s.Gauges[trace.Key{Name: "prof.pdes.partition_barrier_wait_ms", Node: ps.Partition}] = ps.BarrierWaitMS
	}
	for from, row := range d.MailboxPosts {
		for to, n := range row {
			if n > 0 {
				s.Counters[trace.Key{Name: "prof.pdes.mailbox_posts", Node: from, Link: to}] = n
			}
		}
	}
	for _, b := range d.WindowWidthHist {
		bits := int(math.Round(math.Log2(b.UpToNs * 1e3)))
		s.Counters[trace.Key{Name: "prof.pdes.windows_by_width", Chan: bits}] = b.Count
	}
	return s
}
