package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail percentile
// for it to mean anything: with fewer, the "p95" of a run is one or two
// unlucky work units.
const minTail = 10

// median returns the middle of vs (the mean of the middle pair for an
// even count); vs need not be sorted.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the nearest-rank q-quantile of vs, lowered to the
// highest rank that still has minTail samples beyond it, and never below
// the median. It also returns the quantile actually used, so a caller can
// say "p94.6 of 184 samples" instead of claiming a p95 it cannot have.
func tailPercentile(vs []float64, q float64) (value, used float64) {
	n := len(vs)
	if n == 0 {
		return 0, q
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(n))) - 1 // nearest rank, 0-based
	k = min(k, n-1-minTail)
	k = max(k, (n-1)/2)
	return s[k], float64(k+1) / float64(n)
}

// failureShare is the fraction of attempted cells that failed.
func failureShare(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// ratio is a/b, or 0 when b is 0 (an unused layer has no rate).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nsPer is a duration per operation in nanoseconds.
func nsPer(d time.Duration, ops int64) float64 {
	return ratio(float64(d.Nanoseconds()), float64(ops))
}

// costTerm is one layer's share of the closure sum: how many operations
// of it the timed grid performed, and what one costs when driven alone.
type costTerm struct {
	name    string
	ops     float64
	nsPerOp float64
}

// closureRatio is Σ(ops × ns/op) over the layer terms divided by the CPU
// time the timed grid actually spent: 1 means the layer drives explain
// all of it, less means cost the drives do not see (GC, scheduling,
// interactions between layers), more means the drives overstate it.
func closureRatio(terms []costTerm, gridCPU time.Duration) float64 {
	var sum float64
	for _, t := range terms {
		sum += t.ops * t.nsPerOp
	}
	return ratio(sum, float64(gridCPU.Nanoseconds()))
}
