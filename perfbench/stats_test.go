package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = float64(n - i) // reversed, so the helpers must sort
	}
	return vs
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	cases := []struct {
		n          int
		q          float64
		wantValue  float64
		wantBeyond int
	}{
		{n: 400, q: 0.95, wantValue: 380, wantBeyond: 20}, // p95 has 20 beyond: kept
		{n: 200, q: 0.95, wantValue: 190, wantBeyond: 10}, // exactly ten beyond
		{n: 184, q: 0.95, wantValue: 174, wantBeyond: 10}, // lowered to p94.6
		{n: 264, q: 0.50, wantValue: 132, wantBeyond: 132},
		{n: 2, q: 0.95, wantValue: 1, wantBeyond: 1}, // too few: falls back to the median
		{n: 1, q: 0.95, wantValue: 1, wantBeyond: 0},
	}
	for _, c := range cases {
		v, used := tailPercentile(seq(c.n), c.q)
		if v != c.wantValue {
			t.Errorf("n=%d q=%v: value %v, want %v", c.n, c.q, v, c.wantValue)
		}
		beyond := c.n - int(math.Round(used*float64(c.n)))
		if beyond != c.wantBeyond {
			t.Errorf("n=%d q=%v: %d samples beyond (used q=%v), want %d", c.n, c.q, beyond, used, c.wantBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestFailureShare(t *testing.T) {
	if got := failureShare(3, 264); math.Abs(got-3.0/264) > 1e-12 {
		t.Errorf("failureShare(3, 264) = %v", got)
	}
	if got := failureShare(0, 0); got != 0 {
		t.Errorf("failureShare(0, 0) = %v, want 0", got)
	}
}

func TestClosureRatio(t *testing.T) {
	terms := []costTerm{
		{name: "core", ops: 1e6, nsPerOp: 100},  // 100 ms
		{name: "decode", ops: 2e6, nsPerOp: 25}, // 50 ms
		{name: "unused", ops: 0, nsPerOp: 1e9},
	}
	if got := closureRatio(terms, 200*time.Millisecond); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("closure = %v, want 0.75", got)
	}
	if got := closureRatio(terms, 0); got != 0 {
		t.Errorf("closure over no CPU time = %v, want 0", got)
	}
}
