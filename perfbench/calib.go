package main

import (
	"sort"
	"time"
)

// calibSink keeps the calibration kernel's result observable, so the
// compiler cannot drop the loop.
var calibSink uint64

// calibNS times a fixed kernel owned by the benchmark — a dependent
// pseudo-random walk over a 1 MiB table, the same mix of integer work and
// cache misses the simulator's hot loops do — and returns the median
// ns per step of three passes. It is informational: the ROADMAP records
// that naively dividing simulator timings by such a figure did not carry
// them across machines.
func calibNS() float64 {
	const words, steps = 1 << 17, 1 << 21
	table := make([]uint64, words)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[i] = x
	}
	var passes [3]float64
	for p := range passes {
		t0 := time.Now()
		v := uint64(p)
		for i := 0; i < steps; i++ {
			v = table[v&(words-1)] + v*0x5851F42D4C957F2D + uint64(i)
		}
		passes[p] = float64(time.Since(t0).Nanoseconds()) / steps
		calibSink += v
	}
	s := passes[:]
	sort.Float64s(s)
	return s[1]
}
