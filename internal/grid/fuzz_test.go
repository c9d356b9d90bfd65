package grid

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/graphs"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// FuzzSubmitRequest: no job body can crash the service or queue a
// machine or window that cannot be simulated. A body goes through the
// POST /api/jobs path — strict decode, resolve, Submit on a scheduler
// with a stub executor — and may be refused at any step, but never
// panics; every configuration Submit accepts must build with
// sim.NewMachine over a TinyScale image, and every small input scale it
// accepts must build the job's workloads at exactly the requested size.
func FuzzSubmitRequest(f *testing.F) {
	f.Add([]byte(`{"grid":[{"Core":0,"Label":"z"}],"workloads":["BFS_KR"]}`))
	f.Add([]byte(`{"configs":["inorder","imp","ooo","svr16"],"workloads":["BFS_KR","HJ2"],"preset":"quick"}`))
	f.Add([]byte(`{"configs":["svr0","svr-3","svr99999999"],"workloads":["BFS_KR"]}`))
	grids := []sim.Config{sim.MachineConfig(sim.InO), sim.MachineConfig(sim.IMP),
		sim.MachineConfig(sim.OoO), sim.SVRConfig(16)}
	for _, cfg := range badConfigs() {
		grids = append(grids, cfg)
	}
	var bodies []SubmitRequest
	for _, cfg := range grids {
		bodies = append(bodies, SubmitRequest{Grid: []sim.Config{cfg}, Workloads: []string{"BFS_KR"}})
	}
	for _, p := range badParams() {
		p := p
		bodies = append(bodies, SubmitRequest{Configs: []string{"inorder"}, Workloads: []string{"BFS_KR", "HJ2"}, Params: &p})
	}
	for _, body := range bodies {
		blob, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	spec, err := workloads.Get("BFS_KR")
	if err != nil {
		f.Fatal(err)
	}
	image := spec.Build(workloads.TinyScale())

	f.Fuzz(func(t *testing.T, body []byte) {
		var sr SubmitRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&sr) != nil {
			return
		}
		req, err := sr.resolve()
		if err != nil {
			return
		}
		s := New(Options{Engine: sim.NewEngine(nil), Workers: 1, ExecuteGroup: perCell(stubCell)})
		defer s.Shutdown()
		if _, err := s.Submit(req); err != nil {
			return
		}
		for _, cfg := range req.Configs {
			inst := *image
			inst.Mem = image.Mem.Clone()
			if _, err := sim.NewMachine(cfg, &inst); err != nil {
				t.Errorf("accepted config %q does not build: %v", cfg.Label, err)
			}
		}
		// Inputs small enough to build here must build, at the size asked
		// for: the graph generators round a vertex count up to a power of
		// two, which would silently simulate a different input.
		sc := req.Params.Scale
		if sc.GraphNodes > 1<<12 || sc.Elems > 1<<14 {
			return
		}
		specs, err := ResolveWorkloads(req.Workloads)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range specs {
			sp.Build(sc)
		}
		if g := graphs.Generate(graphs.KR, sc.GraphNodes, sc.Seed); g.NumNodes != sc.GraphNodes {
			t.Errorf("accepted GraphNodes = %d builds a %d-vertex graph", sc.GraphNodes, g.NumNodes)
		}
	})
}
