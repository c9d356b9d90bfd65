package sim

import (
	"reflect"
	"testing"

	"repro/internal/workloads"
)

// TestPlanCohorts pins the grouping rules: adjacent single-window
// siblings merge up to MaxCohortWidth — sampled windows included —
// multi-region cells stay solo and split runs, and differing windows
// never share a cohort.
func TestPlanCohorts(t *testing.T) {
	spec := mustSpec(t, "PR_KR")
	p := testWindows()[0].p
	ino, ooo, svr := MachineConfig(InO), MachineConfig(OoO), SVRConfig(16)
	p2 := p
	p2.Measure += 1
	pSamp := p
	pSamp.SampleEvery = 100
	pRegions := p
	pRegions.FastForward, pRegions.Warm, pRegions.Regions = 10_000, true, 2

	cells := []CellRequest{
		{Cfg: ino, Spec: spec, P: p},        // 0 ┐
		{Cfg: ooo, Spec: spec, P: p},        // 1 │ cohort (SVR joins via ArchView)
		{Cfg: svr, Spec: spec, P: p},        // 2 ┘
		{Cfg: svr, Spec: spec, P: pSamp},    // 3 ┐ cohort (sampled window)
		{Cfg: ino, Spec: spec, P: pSamp},    // 4 ┘
		{Cfg: ino, Spec: spec, P: pRegions}, // 5 solo (multi-region)
		{Cfg: ooo, Spec: spec, P: pRegions}, // 6 solo (multi-region)
		{Cfg: ino, Spec: spec, P: p},        // 7 ┐ cohort
		{Cfg: ooo, Spec: spec, P: p},        // 8 ┘
		{Cfg: ino, Spec: spec, P: p2},       // 9 solo (different window)
	}
	got := PlanCohorts(cells, nil)
	want := [][]int{{0, 1, 2}, {3, 4}, {5}, {6}, {7, 8}, {9}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PlanCohorts = %v, want %v", got, want)
	}

	// Width cap: a long run of eligible siblings splits at MaxCohortWidth.
	var wide []CellRequest
	for i := 0; i < MaxCohortWidth+3; i++ {
		wide = append(wide, CellRequest{Cfg: ino, Spec: spec, P: p})
	}
	groups := PlanCohorts(wide, nil)
	if len(groups) != 2 || len(groups[0]) != MaxCohortWidth || len(groups[1]) != 3 {
		t.Errorf("width cap grouping = %v groups (sizes %d)", len(groups), len(groups[0]))
	}

	// An explicit index subset groups only within the subset, in order.
	got = PlanCohorts(cells, []int{1, 7, 9})
	want = [][]int{{1, 7}, {9}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PlanCohorts(subset) = %v, want %v", got, want)
	}
}

// FuzzCohortChunks drives the lockstep walk across arbitrary chunk
// sizes, warmup boundaries and sampling intervals — chunks straddling
// the warmup → measure reset and the interval boundaries, tiny chunks,
// chunks bigger than the window, windows past program end — and
// requires bit-identical Results against the live oracle every time.
func FuzzCohortChunks(f *testing.F) {
	spec, err := workloads.Get("Randacc")
	if err != nil {
		f.Fatal(err)
	}
	cfgs := []Config{MachineConfig(InO), MachineConfig(OoO), MachineConfig(IMP), SVRConfig(16)}
	f.Add(uint16(1000), uint16(3000), uint16(512), uint16(0))
	f.Add(uint16(0), uint16(5000), uint16(1), uint16(700))      // no warmup, single-row chunks
	f.Add(uint16(4096), uint16(4096), uint16(3), uint16(1024))  // boundaries not chunk multiples
	f.Add(uint16(7), uint16(60000), uint16(4096), uint16(5000)) // window inside one chunk, halts mid-interval
	f.Fuzz(func(t *testing.T, warmup, measure, chunk, sample uint16) {
		if measure == 0 {
			measure = 1
		}
		p := Params{
			Scale:       workloads.TinyScale(),
			Warmup:      uint64(warmup),
			Measure:     uint64(measure),
			SampleEvery: uint64(sample),
		}
		prevChunk := cohortChunkRows
		cohortChunkRows = int(chunk%4096) + 1
		defer func() { cohortChunkRows = prevChunk }()

		reqs := make([]CellRequest, len(cfgs))
		for i, cfg := range cfgs {
			reqs[i] = CellRequest{Cfg: cfg, Spec: spec, P: p}
		}
		results := executeCold(t, coldEngine(), reqs)
		for i, cfg := range cfgs {
			if live := Run(spec, cfg, p); !reflect.DeepEqual(results[i], live) {
				t.Errorf("%s (warmup=%d measure=%d chunk=%d sample=%d): cohort differs from live",
					cfg.Label, warmup, measure, cohortChunkRows, sample)
			}
		}
	})
}
