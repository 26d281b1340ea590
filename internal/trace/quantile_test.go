package trace

import (
	"math"
	"testing"

	"repro/internal/hist"
)

// observed records vs into a registry histogram and returns the
// registry's snapshot of it.
func observed(vs ...uint64) hist.Snapshot {
	m := NewMetrics()
	k := Key{Name: "test.latency_ps"}
	h := m.Histogram(k)
	for _, v := range vs {
		h.Observe(v)
	}
	return m.Snapshot().Histograms[k]
}

func TestQuantileEmptyHistogram(t *testing.T) {
	s := observed()
	for _, p := range []float64{0, 0.5, 0.99, 1, math.NaN()} {
		if q := s.Quantile(p); q != 0 {
			t.Fatalf("Quantile(%v) on empty histogram = %g, want 0", p, q)
		}
	}
}

func TestQuantileSingleValueIsExact(t *testing.T) {
	vs := make([]uint64, 10)
	for i := range vs {
		vs[i] = 100
	}
	s := observed(vs...)
	// A power-of-two bucket spans [64, 128); min/max clamping must pull
	// every quantile back to the one observed value.
	for _, p := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if q := s.Quantile(p); q != 100 {
			t.Fatalf("Quantile(%v) = %g, want exactly 100", p, q)
		}
	}
}

func TestQuantileUniformDistribution(t *testing.T) {
	const n = 1000
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = uint64(i + 1)
	}
	s := observed(vs...)
	cases := []struct {
		p    float64
		want float64
	}{
		{0.5, 500},
		{0.99, 990},
		{0.999, 999},
	}
	for _, c := range cases {
		got := s.Quantile(c.p)
		// log2 buckets bound the estimate to within the bucket that holds
		// the target rank, clamped to [Min, Max]; for a uniform [1,1000]
		// distribution every estimate must land within a few percent.
		if relErr := math.Abs(got-c.want) / c.want; relErr > 0.05 {
			t.Errorf("Quantile(%v) = %g, want %g within 5%% (err %.1f%%)",
				c.p, got, c.want, 100*relErr)
		}
	}
	if s.Quantile(0) != float64(s.Min) {
		t.Errorf("Quantile(0) = %g, want Min %d", s.Quantile(0), s.Min)
	}
	if s.Quantile(1) != float64(s.Max) {
		t.Errorf("Quantile(1) = %g, want Max %d", s.Quantile(1), s.Max)
	}
	if s.Quantile(-3) != float64(s.Min) || s.Quantile(7) != float64(s.Max) {
		t.Error("out-of-range p must clamp to Min/Max")
	}
}

func TestQuantileMonotonic(t *testing.T) {
	s := observed(0, 1, 3, 8, 8, 8, 120, 4096, 1<<20)
	prev := math.Inf(-1)
	for p := 0.0; p <= 1.0; p += 0.01 {
		q := s.Quantile(p)
		if q < prev {
			t.Fatalf("Quantile not monotone: Quantile(%v)=%g < previous %g", p, q, prev)
		}
		prev = q
	}
}
