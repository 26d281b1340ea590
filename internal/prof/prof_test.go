package prof

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestHistObserveAndSnapshot checks a node phase's histogram path:
// every observation lands in its log2 bucket with exact extremes, and a
// negative duration clamps to zero instead of wrapping.
func TestHistObserveAndSnapshot(t *testing.T) {
	var np NodeProf
	for _, d := range []sim.Time{0, 1, 1, 7, 8, 1000, -5} {
		np.Observe(NodeMemService, d)
	}
	s := np.Phase(NodeMemService)
	if s.Count != 7 {
		t.Fatalf("count %d, want 7", s.Count)
	}
	if s.Sum != 0+1+1+7+8+1000+0 {
		t.Fatalf("sum %d, want 1017 (negative clamps to zero)", s.Sum)
	}
	if s.Min != 0 || s.Max != 1000 {
		t.Fatalf("min/max %d/%d, want 0/1000", s.Min, s.Max)
	}
	// Bucket b holds durations of bit length b: zeros (and the clamped
	// negative) in 0, the two 1s in 1, 7 in 3, 8 in 4, 1000 in 10.
	for b, want := range map[int]uint64{0: 2, 1: 2, 3: 1, 4: 1, 10: 1} {
		if s.Buckets[b] != want {
			t.Errorf("bucket %d = %d, want %d", b, s.Buckets[b], want)
		}
	}
	if got := s.Mean(); math.Abs(got-1017.0/7) > 1e-9 {
		t.Errorf("mean %g, want %g", got, 1017.0/7)
	}
}

// TestHistQuantileBounds: quantiles stay inside the observed range — a
// phase that only ever took one value reports it exactly rather than
// an interpolation across its power-of-two bucket.
func TestHistQuantileBounds(t *testing.T) {
	var np NodeProf
	if q := np.Phase(NodeNBXbar).Quantile(0.5); q != 0 {
		t.Errorf("empty phase quantile = %g, want 0", q)
	}
	for i := 0; i < 100; i++ {
		np.Observe(NodeNBXbar, 1000)
	}
	np.Observe(NodeNBXbar, 600)
	s := np.Phase(NodeNBXbar)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := s.Quantile(q); v < 600 || v > 1000 {
			t.Errorf("quantile(%g) = %g, outside observed [600,1000]", q, v)
		}
	}
}

// TestConstantPhaseQuantilesExact: a phase fed only through the
// constant counters (SetConst plus AddConst/AddFast, never the
// histogram) reports its constant as p50 and p99 in the summary.
func TestConstantPhaseQuantilesExact(t *testing.T) {
	p := New()
	p.Init(1, 1)
	lp, np := p.Link(0), p.Node(0)
	lp.SetConst(LinkSer, 1235)
	lp.SetConst(LinkFlight, 9260)
	np.SetConst(NodeNBBridge, 3000)
	for i := 0; i < 40; i++ {
		lp.AddFast(i % 2)
		np.AddConst(NodeNBBridge)
	}
	want := map[string]float64{"link.queue": 0, "link.ser": 1235, "link.flight": 9260, "nb.bridge": 3000}
	sum := p.Summary()
	if len(sum.Budget) != len(want) {
		t.Fatalf("budget has %d phases, want %d: %+v", len(sum.Budget), len(want), sum.Budget)
	}
	for _, ph := range sum.Budget {
		w, ok := want[ph.Phase]
		if !ok {
			t.Errorf("unexpected phase %s", ph.Phase)
			continue
		}
		if ph.Count != 40 || ph.MeanPS != w || ph.P50PS != w || ph.P99PS != w {
			t.Errorf("%s: count %d mean %g p50 %g p99 %g, want 40 and exactly %g",
				ph.Phase, ph.Count, ph.MeanPS, ph.P50PS, ph.P99PS, w)
		}
	}
}

// TestLinkProfConstMergesExact pins the counted-constant contract: a
// phase observed via SetConst+AddConst, via the fused all-constant
// fast path, or via the histogram must merge into one indistinguishable
// snapshot population.
func TestLinkProfConstMergesExact(t *testing.T) {
	// Reference: everything through the histogram.
	var ref LinkProf
	for i := 0; i < 10; i++ {
		ref.Observe(0, LinkQueue, 0)
		ref.Observe(0, LinkSer, 200)
		ref.Observe(0, LinkFlight, 8000)
	}
	ref.Observe(1, LinkQueue, 50)
	ref.Observe(1, LinkSer, 300)
	ref.Observe(1, LinkFlight, 8000)

	// Same population through the fast paths: 10 all-constant packets
	// on side 0, one odd packet on side 1 (nonzero queue wait, odd
	// serialization, constant flight).
	var lp LinkProf
	lp.SetConst(LinkQueue, 0)
	lp.SetConst(LinkSer, 200)
	lp.SetConst(LinkFlight, 8000)
	for i := 0; i < 10; i++ {
		lp.AddFast(0)
	}
	lp.Observe(1, LinkQueue, 50)
	lp.Observe(1, LinkSer, 300)
	lp.AddConst(1, LinkFlight)

	for ph := LinkPhase(0); ph < NumLinkPhases; ph++ {
		got, want := lp.Phase(ph), ref.Phase(ph)
		if got != want {
			t.Errorf("%v: fast-path snapshot diverges from reference:\ngot:  %+v\nwant: %+v",
				ph, got, want)
		}
	}
}

// TestNodeProfConstMergesExact does the same for the node pipeline:
// fused crossbar+hop fast passes and per-phase constants must be
// indistinguishable from histogram observations.
func TestNodeProfConstMergesExact(t *testing.T) {
	var ref NodeProf
	for i := 0; i < 5; i++ {
		ref.Observe(NodeNBXbar, 4000)
		ref.Observe(NodeNBHop, 13000)
	}
	ref.Observe(NodeNBXbar, 9000) // contended pass
	ref.Observe(NodeNBHop, 13000)
	ref.Observe(NodeMemService, 60000)
	ref.Observe(NodeMemService, 60000)

	var np NodeProf
	np.SetConst(NodeNBXbar, 4000)
	np.SetConst(NodeNBHop, 13000)
	np.SetConst(NodeMemService, 60000)
	for i := 0; i < 5; i++ {
		np.AddFastXbar()
	}
	np.Observe(NodeNBXbar, 9000)
	np.AddConst(NodeNBHop)
	np.AddConst(NodeMemService)
	np.AddConst(NodeMemService)

	for ph := NodePhase(0); ph < NumNodePhases; ph++ {
		got, want := np.Phase(ph), ref.Phase(ph)
		if got != want {
			t.Errorf("%v: fast-path snapshot diverges from reference:\ngot:  %+v\nwant: %+v",
				ph, got, want)
		}
	}
}

func TestNilHandlesAreSafe(t *testing.T) {
	var lp *LinkProf
	lp.Observe(0, LinkQueue, 1)
	lp.AddConst(0, LinkSer)
	lp.AddFast(1)
	var np *NodeProf
	np.Observe(NodeMemService, 1)
	np.AddConst(NodeNBHop)
	np.AddFastXbar()
	var p *Profiler
	if p.Link(0) != nil || p.Node(0) != nil || p.Spans() {
		t.Error("nil profiler must hand out nil handles and no spans")
	}
}

func TestSummaryBudgetAndCriticalPath(t *testing.T) {
	p := New()
	p.Init(2, 1)
	// Link 1 carries 3x the serialization time of link 0.
	p.Link(0).Observe(0, LinkSer, 10_000)
	p.Link(1).Observe(0, LinkSer, 30_000)
	p.Link(1).Observe(1, LinkQueue, 5_000)
	p.Node(0).Observe(NodeMemService, 60_000)

	s := p.Summary()
	byPhase := map[string]PhaseStats{}
	for _, ph := range s.Budget {
		byPhase[ph.Phase] = ph
	}
	if got := byPhase["link.ser"]; got.Count != 2 || got.TotalPS != 40_000 {
		t.Errorf("link.ser budget = %+v, want count 2 total 40000", got)
	}
	if got := byPhase["mem.service"]; got.Count != 1 || got.TotalPS != 60_000 {
		t.Errorf("mem.service budget = %+v, want count 1 total 60000", got)
	}
	if len(s.CriticalPath) != 2 {
		t.Fatalf("critical path has %d hops, want 2", len(s.CriticalPath))
	}
	top := s.CriticalPath[0]
	if top.Link != 1 || top.Dominant != "link.ser" {
		t.Errorf("top hop = %+v, want link 1 dominated by link.ser", top)
	}
	if math.Abs(top.SharePct-100*35_000.0/45_000.0) > 1e-9 {
		t.Errorf("top hop share %.2f%%, want %.2f%%", top.SharePct, 100*35_000.0/45_000.0)
	}

	var txt strings.Builder
	if err := s.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"latency budget", "link.ser", "mem.service", "critical path"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text summary missing %q:\n%s", want, txt.String())
		}
	}

	var prom strings.Builder
	if err := s.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`tcc_prof_phase_ps{link="1",phase="link.ser",quantile="0.99"}`,
		`tcc_prof_phase_ps_count{node="0",phase="mem.service"} 1`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus output missing %q:\n%s", want, prom.String())
		}
	}
}

func TestSummaryEmpty(t *testing.T) {
	p := New()
	p.Init(1, 1)
	s := p.Summary()
	if len(s.Budget) != 0 || len(s.Links) != 0 || len(s.CriticalPath) != 0 {
		t.Errorf("idle profiler produced a non-empty summary: %+v", s)
	}
	var txt strings.Builder
	if err := s.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "no observations") {
		t.Errorf("empty summary text = %q", txt.String())
	}
}
