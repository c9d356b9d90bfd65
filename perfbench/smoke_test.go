package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// tinyWorkload is a two-kernel, two-machine grid at TinyScale with a
// short window: the whole benchmark path in well under a second.
func tinyWorkload(t *testing.T) workload {
	t.Helper()
	var specs []workloads.Spec
	for _, n := range []string{"BFS_KR", "mcf"} {
		s, err := workloads.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	return workload{name: "tiny", specs: specs,
		cfgs: []sim.Config{sim.MachineConfig(sim.InO), sim.MachineConfig(sim.OoO), sim.MachineConfig(sim.IMP), sim.SVRConfig(8)},
		p:    sim.Params{Scale: workloads.TinyScale(), Warmup: 2_000, Measure: 8_000}, repSeconds: 1}
}

// benchmarkNames reads the metric names BENCHMARK.json promises.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func TestSmokeTinyGrid(t *testing.T) {
	w := tinyWorkload(t)
	sp := newSpans()
	rep := runGrid(w, 7, sp, true)
	if rep.Cells != 8 || len(rep.Failed) != 0 || rep.Instrs == 0 {
		t.Fatalf("grid: %d cells, failed %v, %d instrs", rep.Cells, rep.Failed, rep.Instrs)
	}
	if len(rep.Checked) == 0 || len(rep.Mismatches) != 0 {
		t.Fatalf("output check: checked %v, mismatches %v", rep.Checked, rep.Mismatches)
	}
	if rep.Units >= rep.Cells {
		t.Errorf("%d work units for %d cells: replay-eligible siblings should share cohorts", rep.Units, rep.Cells)
	}
	if again := runGrid(w, 7, nil, false).Digest; again != rep.Digest {
		t.Errorf("same seed, different digest: %s vs %s", rep.Digest, again)
	}

	root := sp.begin("layers", 0, 0, nil)
	var costs []windowCost
	for si := range w.specs {
		c, err := driveWindow(w, si, sp, root)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, c)
	}
	sp.end(root)
	terms := closureTerms(w, rep, costs)
	layers := layerMetrics(rep, costs, terms)
	_, perLayer := benchmarkNames(t)
	for _, name := range perLayer {
		if name == "trace.overhead_ratio" || name == "host.calib_ns" {
			continue // added by the parent process
		}
		if _, ok := layers[name]; !ok {
			t.Errorf("per-layer metric %s missing", name)
		}
	}
	if len(layers) != len(perLayer)-2 {
		t.Errorf("%d per-layer metrics, BENCHMARK.json lists %d", len(layers), len(perLayer))
	}
	if cl := layers["layers.closure_ratio"].Value; cl <= 0 {
		t.Errorf("closure ratio %v", cl)
	}
	sp.summary(io.Discard)
	if err := sp.writeChrome(t.TempDir()+"/trace.json", rep.Workers); err != nil {
		t.Fatal(err)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	list := []span{
		{id: 1, start: ms(0), end: ms(100)},
		{id: 2, parent: 1, start: ms(10), end: ms(50)},
		{id: 3, parent: 1, start: ms(30), end: ms(70)},  // overlaps 2: union 10..70
		{id: 4, parent: 1, start: ms(90), end: ms(120)}, // clipped to the parent
	}
	self := selfTimes(list)
	if self[0] != ms(30) {
		t.Errorf("root self %v, want 30ms", self[0])
	}
	if self[1] != ms(40) {
		t.Errorf("leaf self %v, want 40ms", self[1])
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "spec-grid", "--trace", "2"},
		{"--workload", "spec-grid", "--seconds", "0"},
	} {
		if code := run(args, 0, io.Discard); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
	}
}
