package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by the nearest-rank
// rule, sorting xs in place. +Inf entries (failed requests) sort last, so
// they count as missing every latency limit. An empty sample is NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	return xs[rank]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// logHist is a lock-free histogram of non-negative nanosecond values:
// 16 linear sub-buckets per power of two, so a quantile read from it is
// within 1/16 of the true value. It collects waits observed on the
// server's worker goroutines without a lock on their path.
type logHist struct {
	counts [64 * 16]atomic.Int64
}

func histBucket(v int64) int {
	if v < 16 {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 5 // v >> e is in [16, 32)
	return (e+1)*16 + int(v>>e) - 16
}

// bucketValue is the upper edge of bucket b.
func bucketValue(b int) int64 {
	if b < 16 {
		return int64(b)
	}
	e := b/16 - 1
	return (int64(b%16+16)+1)<<e - 1
}

func (h *logHist) observe(v int64) { h.counts[histBucket(v)].Add(1) }

func (h *logHist) total() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// quantile reads the q-quantile's bucket upper edge, NaN when empty.
func (h *logHist) quantile(q float64) float64 {
	n := h.total()
	if n == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			return float64(bucketValue(i))
		}
	}
	return math.NaN()
}
