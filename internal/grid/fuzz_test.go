package grid

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// FuzzSubmitRequest: no job body can crash the service or queue a
// machine that cannot be built. A body goes through the POST /api/jobs
// path — strict decode, resolve, Submit on a scheduler with a stub
// executor — and may be refused at any step, but never panics; every
// configuration Submit accepts must build with sim.NewMachine over a
// TinyScale image.
func FuzzSubmitRequest(f *testing.F) {
	f.Add([]byte(`{"grid":[{"Core":0,"Label":"z"}],"workloads":["BFS_KR"]}`))
	f.Add([]byte(`{"configs":["inorder","imp","ooo","svr16"],"workloads":["BFS_KR","HJ2"],"preset":"quick"}`))
	f.Add([]byte(`{"configs":["svr0","svr-3","svr99999999"],"workloads":["BFS_KR"]}`))
	grids := []sim.Config{sim.MachineConfig(sim.InO), sim.MachineConfig(sim.IMP),
		sim.MachineConfig(sim.OoO), sim.SVRConfig(16)}
	for _, cfg := range badConfigs() {
		grids = append(grids, cfg)
	}
	for _, cfg := range grids {
		blob, err := json.Marshal(SubmitRequest{Grid: []sim.Config{cfg}, Workloads: []string{"BFS_KR"}})
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
	stub := func(req sim.CellRequest, _ *sim.Tracker) (sim.Result, sim.CellOutcome) {
		return stubResult(req), sim.CellOutcome{}
	}

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
		s := New(Options{Engine: sim.NewEngine(nil), Workers: 1, Execute: stub})
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
	})
}
