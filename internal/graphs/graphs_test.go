package graphs

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func checkCSRWellFormed(t *testing.T, g *CSR) {
	t.Helper()
	if len(g.Offsets) != g.NumNodes+1 {
		t.Fatalf("offsets length %d for %d nodes", len(g.Offsets), g.NumNodes)
	}
	if g.Offsets[0] != 0 || int(g.Offsets[g.NumNodes]) != len(g.Neighbors) {
		t.Fatal("offset endpoints wrong")
	}
	for u := 0; u < g.NumNodes; u++ {
		if g.Offsets[u] > g.Offsets[u+1] {
			t.Fatalf("offsets not monotonic at %d", u)
		}
		prev := int64(-1)
		for _, v := range g.Neigh(u) {
			if int(v) >= g.NumNodes {
				t.Fatalf("neighbor %d out of range", v)
			}
			if int64(v) < prev {
				t.Fatalf("adjacency of %d not sorted", u)
			}
			prev = int64(v)
		}
	}
}

func TestUniformWellFormed(t *testing.T) {
	g := Uniform("ur", 1000, 8, 1)
	checkCSRWellFormed(t, g)
	if g.NumEdges() != 8000 {
		t.Errorf("edges = %d", g.NumEdges())
	}
}

func TestKroneckerSkewed(t *testing.T) {
	g := Kronecker("kr", 12, 16, 2)
	checkCSRWellFormed(t, g)
	ur := Uniform("ur", g.NumNodes, 16, 2)
	if g.MaxDegree() < 4*ur.MaxDegree() {
		t.Errorf("Kronecker max degree %d not much larger than uniform %d",
			g.MaxDegree(), ur.MaxDegree())
	}
}

// topShare returns the fraction of edges owned by the top 1% of vertices.
func topShare(g *CSR) float64 {
	degs := make([]int, g.NumNodes)
	for u := range degs {
		degs[u] = g.Degree(u)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	top := 0
	k := g.NumNodes / 100
	if k < 1 {
		k = 1
	}
	for _, d := range degs[:k] {
		top += d
	}
	return float64(top) / float64(g.NumEdges())
}

func TestPowerLawSkewOrdering(t *testing.T) {
	// Smaller alpha => heavier tail => the hub vertices own a larger
	// share of all edges (scale-invariant statistic).
	tw := PowerLaw("tw", 8192, 16, 2.0, 3)
	lj := PowerLaw("lj", 8192, 16, 2.4, 3)
	checkCSRWellFormed(t, tw)
	checkCSRWellFormed(t, lj)
	if topShare(tw) <= topShare(lj) {
		t.Errorf("TW-like top-1%% share %.3f should exceed LJN-like %.3f",
			topShare(tw), topShare(lj))
	}
}

func TestBuildAllInputs(t *testing.T) {
	for _, in := range Inputs {
		g := Build(in, 2048, 7)
		checkCSRWellFormed(t, g)
		if g.NumEdges() < 2048 {
			t.Errorf("%s: only %d edges", in, g.NumEdges())
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	a := Build(KR, 1024, 5)
	b := Build(KR, 1024, 5)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different graphs")
	}
	for i := range a.Neighbors {
		if a.Neighbors[i] != b.Neighbors[i] {
			t.Fatal("same seed produced different neighbor arrays")
		}
	}
}

func TestDegreeSumInvariant(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		g := Uniform("u", 256, 4, seed)
		sum := 0
		for u := 0; u < g.NumNodes; u++ {
			sum += g.Degree(u)
		}
		return sum == g.NumEdges()
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestORKDensest(t *testing.T) {
	ork := Build(ORK, 2048, 9)
	ljn := Build(LJN, 2048, 9)
	if float64(ork.NumEdges())/2048 <= float64(ljn.NumEdges())/2048 {
		t.Errorf("ORK avg degree %.1f should exceed LJN %.1f",
			float64(ork.NumEdges())/2048, float64(ljn.NumEdges())/2048)
	}
}

// TestBuildSingleFlight: concurrent callers for one input share one
// generated graph, and builds of different inputs all complete (run it
// under -race).
func TestBuildSingleFlight(t *testing.T) {
	const callers = 8
	got := make([]*CSR, callers)
	other := make([]*CSR, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			got[i] = Build(KR, 4096, 31)
		}(i)
		go func(i int) {
			defer wg.Done()
			other[i] = Build(Inputs[i%len(Inputs)], 2048, 32)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a different *CSR for the same key", i)
		}
		checkCSRWellFormed(t, other[i])
		if other[i].Name != string(Inputs[i%len(Inputs)]) {
			t.Errorf("caller %d: built %s, want %s", i, other[i].Name, Inputs[i%len(Inputs)])
		}
	}
}

func TestBuildUnknownInputPanicsEveryTime(t *testing.T) {
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("call %d: Build of an unknown input did not panic", i)
				}
			}()
			Build("nope", 16, 1)
		}()
	}
}

// krFloatReference is the Kronecker edge generator written directly
// against math/rand's Float64 and the quadrant probabilities: the oracle
// for the integer-threshold sampler.
func krFloatReference(scale, edgeFactor int, seed int64) (src, dst []uint32) {
	rng := rand.New(rand.NewSource(seed))
	const a, b, c = 0.57, 0.19, 0.19
	for i := 0; i < edgeFactor<<scale; i++ {
		var u, v uint32
		for bit := 0; bit < scale; bit++ {
			switch r := rng.Float64(); {
			case r < a:
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		src, dst = append(src, u), append(dst, v)
	}
	return src, dst
}

// csrReference builds the CSR of an edge list the obvious way: one
// appended list per source, each sorted.
func csrReference(n int, src, dst []uint32) (off, neigh []uint32) {
	lists := make([][]uint32, n)
	for i, s := range src {
		lists[s] = append(lists[s], dst[i])
	}
	off = []uint32{0}
	for _, l := range lists {
		slices.Sort(l)
		neigh = append(neigh, l...)
		off = append(off, uint32(len(neigh)))
	}
	return off, neigh
}

// TestKroneckerMatchesFloatSampling: the integer thresholds draw exactly
// the graph the float comparison draws, seed for seed.
func TestKroneckerMatchesFloatSampling(t *testing.T) {
	for _, seed := range []int64{1, 2, 42, -7} {
		src, dst := krFloatReference(10, 8, seed)
		off, neigh := csrReference(1<<10, src, dst)
		got := Kronecker("kr", 10, 8, seed)
		if !slices.Equal(got.Offsets, off) || !slices.Equal(got.Neighbors, neigh) {
			t.Errorf("seed %d: Kronecker differs from the float-sampled reference", seed)
		}
	}
}

// TestFromEdgesMatchesReference: the in-place grouping yields the
// reference CSR for edge lists whose vertex count is and is not a
// multiple of the grouping's block size, with skew, duplicates and
// empty vertices.
func TestFromEdgesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 7, 2048, 5000, 1 << 13} {
		m := 6 * n
		src, dst := make([]uint32, m), make([]uint32, m)
		for i := range src {
			s := rng.Intn(n)
			if i%3 == 0 {
				s = rng.Intn(max(n/64, 1)) // hubs
			}
			src[i], dst[i] = uint32(s), uint32(rng.Intn(n))
		}
		off, neigh := csrReference(n, src, dst)
		g := fromEdges("e", n, src, dst)
		if !slices.Equal(g.Offsets, off) || !slices.Equal(g.Neighbors, neigh) {
			t.Errorf("n=%d: fromEdges differs from the reference CSR", n)
		}
	}
}

// TestFloat64Threshold: each threshold is the exact boundary of the
// float comparison it replaces.
func TestFloat64Threshold(t *testing.T) {
	r := func(x uint64) float64 { return float64(x) / (1 << 63) }
	for _, p := range []float64{0.57, 0.57 + 0.19, 0.57 + 0.19 + 0.19, 1, 0.5, 1e-300} {
		x := float64Threshold(p)
		if r(x) < p || (x > 0 && r(x-1) >= p) {
			t.Errorf("threshold(%v) = %d: r(x)=%v r(x-1)=%v", p, x, r(x), r(x-1))
		}
		for _, y := range []uint64{x - 1, x, x + 1} {
			if y >= 1<<63 {
				continue
			}
			if (geq(y, x) == 1) != (r(y) >= p) {
				t.Errorf("geq(%d, %d) disagrees with the float comparison against %v", y, x, p)
			}
		}
	}
}
