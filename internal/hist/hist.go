// Package hist is the repository's one distribution type: a
// log2-bucketed histogram of non-negative integers (latencies in
// picoseconds, sizes in bytes) with one writer and any number of
// snapshot readers. The trace metrics registry, the profiler's phase
// budget and the serving stack's request latencies all report through
// it, so every quantile the system prints is computed the same way.
package hist

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Buckets covers bits.Len64 of any uint64: bucket b holds values whose
// bit length is b, i.e. [2^(b-1), 2^b) (bucket 0 holds exact zeros).
const Buckets = 65

// Hist accumulates observations. Updates are atomic load+store pairs
// rather than read-modify-writes: single-writer ownership makes that
// exact, and on x86 it turns each observe into plain MOVs instead of
// locked instructions, which is what keeps enabled profiling inside its
// overhead budget. Readers may snapshot concurrently with the writer.
// Callers with several writers must serialize them (the trace collector
// observes under its lock). The observation count is derived from the
// buckets at snapshot time instead of being a stored word.
type Hist struct {
	sum    atomic.Uint64
	minInv atomic.Uint64 // ^min, so the zero value reads as "no minimum yet"
	max    atomic.Uint64
	bucket [Buckets]atomic.Uint64
}

// Observe folds one value in. Must only be called from the histogram's
// writer goroutine. The bucket is stored last and Snapshot reads the
// buckets first, so a concurrent snapshot's sum and extremes always
// cover every observation it counts.
func (h *Hist) Observe(v uint64) {
	h.sum.Store(h.sum.Load() + v)
	if ^v > h.minInv.Load() {
		h.minInv.Store(^v)
	}
	if v > h.max.Load() {
		h.max.Store(v)
	}
	b := &h.bucket[bits.Len64(v)]
	b.Store(b.Load() + 1)
}

// Snapshot is a point-in-time copy of a Hist, or a merge of several.
// Min and Max are the exact extremes observed (both zero when empty).
type Snapshot struct {
	Count    uint64
	Sum      uint64
	Min, Max uint64
	Buckets  [Buckets]uint64
}

// Snapshot copies the histogram. Safe concurrently with the writer: an
// observation in flight may show in Sum, Min or Max before its bucket
// counts it, never the other way round.
func (h *Hist) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.bucket {
		s.Buckets[i] = h.bucket[i].Load()
		s.Count += s.Buckets[i]
	}
	if s.Count > 0 {
		s.Sum, s.Min, s.Max = h.sum.Load(), ^h.minInv.Load(), h.max.Load()
	}
	return s
}

// Constant returns the snapshot n observations of exactly v would
// produce. Populations counted rather than observed (the profiler's
// constant-phase counters) merge through it with exact extremes, so a
// phase that only ever took one value reports it exactly.
func Constant(n, v uint64) Snapshot {
	if n == 0 {
		return Snapshot{}
	}
	s := Snapshot{Count: n, Sum: n * v, Min: v, Max: v}
	s.Buckets[bits.Len64(v)] = n
	return s
}

// Merge folds o into s.
func (s *Snapshot) Merge(o Snapshot) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 || o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
	s.Count += o.Count
	s.Sum += o.Sum
	for i := range s.Buckets {
		s.Buckets[i] += o.Buckets[i]
	}
}

// Mean returns the average observed value (0 when empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the p-quantile of the distribution (0 <= p <= 1).
// Bucket b holds the integers [2^(b-1), 2^b - 1]; the estimate
// interpolates linearly across the bucket holding the target rank and
// is clamped to the exact observed [Min, Max], so single-valued and tight distributions come
// back exact rather than smeared across a power-of-two bucket, and no
// quantile ever exceeds the largest observation. Out of range p is
// clamped; an empty histogram reports 0.
func (s Snapshot) Quantile(p float64) float64 {
	if s.Count == 0 || math.IsNaN(p) {
		return 0
	}
	lo, hi := float64(s.Min), float64(s.Max)
	if p <= 0 {
		return lo
	}
	if p >= 1 {
		return hi
	}
	target := p * float64(s.Count)
	cum := 0.0
	for b, c := range s.Buckets {
		n := float64(c)
		if n == 0 {
			continue
		}
		if cum+n < target {
			cum += n
			continue
		}
		if b == 0 { // bucket 0 holds only the value 0
			return lo
		}
		blo := math.Ldexp(1, b-1)
		v := blo + (target-cum)/n*(blo-1)
		return math.Min(math.Max(v, lo), hi)
	}
	return hi
}
