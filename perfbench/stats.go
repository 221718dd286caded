package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie above a reported
// tail percentile: a tail read from fewer samples is one outlier.
const minBeyond = 10

// tailLadder is the set of percentiles a tail is reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// summary describes one sample of timings.
type summary struct {
	N      int
	Median float64
	// TailPct is the highest percentile of tailLadder that has at
	// least minBeyond samples beyond it, and Tail its value; both are
	// zero when the sample is too small for any of them.
	TailPct float64
	Tail    float64
}

// summarize returns the median and the highest supported tail
// percentile of xs. xs is not modified.
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = median(sorted)
	for _, p := range tailLadder {
		if v, ok := percentile(sorted, p); ok {
			s.TailPct, s.Tail = p, v
			break
		}
	}
	return s
}

// percentile returns the nearest-rank p-th percentile of sorted and
// whether at least minBeyond samples lie above its rank.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// percentileAt returns the tail at exactly p, or ok=false when the
// sample leaves fewer than minBeyond samples beyond it.
func percentileAt(xs []float64, p float64) (float64, bool) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentile(sorted, p)
}

// median returns the median of sorted (mean of the middle pair for
// even lengths).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf is median for an unsorted sample.
func medianOf(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return median(sorted)
}

// String renders the summary with its sample count, e.g.
// "p50 1.93 p95 412.1 (n=231)".
func (s summary) String() string {
	if s.TailPct == 0 {
		return fmt.Sprintf("p50 %.4g, no tail (n=%d, need %d beyond)", s.Median, s.N, minBeyond)
	}
	return fmt.Sprintf("p50 %.4g p%g %.4g (n=%d)", s.Median, s.TailPct, s.Tail, s.N)
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
