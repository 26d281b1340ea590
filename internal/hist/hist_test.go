package hist

import (
	"math"
	"testing"
)

func TestObserveAndSnapshot(t *testing.T) {
	var h Hist
	if s := h.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("empty snapshot = %+v, want zero", s)
	}
	for _, v := range []uint64{0, 1, 1, 7, 8, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 || s.Sum != 1017 || s.Min != 0 || s.Max != 1000 {
		t.Fatalf("count/sum/min/max = %d/%d/%d/%d, want 6/1017/0/1000", s.Count, s.Sum, s.Min, s.Max)
	}
	// Bucket b holds values of bit length b.
	for b, want := range map[int]uint64{0: 1, 1: 2, 3: 1, 4: 1, 10: 1} {
		if s.Buckets[b] != want {
			t.Errorf("bucket %d = %d, want %d", b, s.Buckets[b], want)
		}
	}
	if got := s.Mean(); math.Abs(got-1017.0/6) > 1e-9 {
		t.Errorf("mean %g, want %g", got, 1017.0/6)
	}
}

// The full uint64 range fits: the top bucket holds values with bit 63
// set, and the extremes stay exact at both ends.
func TestObserveFullRange(t *testing.T) {
	var h Hist
	h.Observe(math.MaxUint64)
	h.Observe(3)
	s := h.Snapshot()
	if s.Buckets[64] != 1 || s.Buckets[2] != 1 {
		t.Fatalf("buckets 64/2 = %d/%d, want 1/1", s.Buckets[64], s.Buckets[2])
	}
	if s.Min != 3 || s.Max != math.MaxUint64 {
		t.Fatalf("min/max = %d/%d", s.Min, s.Max)
	}
}

func TestMergeKeepsExactExtremes(t *testing.T) {
	var a, b Hist
	for _, v := range []uint64{500, 900} {
		a.Observe(v)
	}
	for _, v := range []uint64{40, 600} {
		b.Observe(v)
	}
	var s Snapshot
	s.Merge(Snapshot{}) // merging an empty snapshot is a no-op
	s.Merge(a.Snapshot())
	if s.Min != 500 || s.Max != 900 {
		t.Fatalf("after first merge min/max = %d/%d, want 500/900", s.Min, s.Max)
	}
	s.Merge(b.Snapshot())
	s.Merge(Snapshot{})
	if s.Count != 4 || s.Sum != 2040 || s.Min != 40 || s.Max != 900 {
		t.Fatalf("merged count/sum/min/max = %d/%d/%d/%d, want 4/2040/40/900",
			s.Count, s.Sum, s.Min, s.Max)
	}
	var all Hist
	for _, v := range []uint64{500, 900, 40, 600} {
		all.Observe(v)
	}
	if s != all.Snapshot() {
		t.Fatalf("merge of parts %+v differs from one histogram %+v", s, all.Snapshot())
	}
}

// A counted constant population is indistinguishable from observing
// the value n times, and its quantiles are exact.
func TestConstantMatchesObserved(t *testing.T) {
	var h Hist
	for i := 0; i < 37; i++ {
		h.Observe(9260)
	}
	c := Constant(37, 9260)
	if c != h.Snapshot() {
		t.Fatalf("Constant = %+v, observed = %+v", c, h.Snapshot())
	}
	for _, p := range []float64{0.5, 0.99, 0.999} {
		if q := c.Quantile(p); q != 9260 {
			t.Errorf("Quantile(%v) = %g, want exactly 9260", p, q)
		}
	}
	if Constant(0, 5) != (Snapshot{}) {
		t.Error("Constant(0, v) is not empty")
	}
}

// The tail estimate never exceeds the largest observation, even when
// the top bucket is sparsely populated near its lower edge.
func TestQuantileNeverExceedsMax(t *testing.T) {
	var h Hist
	for i := 0; i < 990; i++ {
		h.Observe(1000)
	}
	for i := 0; i < 10; i++ {
		h.Observe(2_500_000) // bucket [2^21, 2^22): interpolation would reach 4.19M
	}
	s := h.Snapshot()
	for _, p := range []float64{0.995, 0.999, 0.9999} {
		if q := s.Quantile(p); q > float64(s.Max) {
			t.Errorf("Quantile(%v) = %g above max %d", p, q, s.Max)
		}
	}
}
