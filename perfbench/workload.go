package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/sim"
	"repro/internal/workloads"
)

// A benchmark workload: one grid of machine configurations × workload
// kernels over one simulation window. README.md records why each was
// chosen and which layers it stresses.
type workload struct {
	name  string
	cfgs  []sim.Config
	specs []workloads.Spec
	p     sim.Params
	// repSeconds is the measured wall time of one timed grid on the
	// reference box (one worker); a run repeats the grid seconds/repSeconds
	// times, rounded, at least once, so the work measured is fixed by
	// the command line rather than by how fast the host happens to be.
	repSeconds float64
	// setupPasses is how many times a run times the set-up section;
	// setup_s is their median. Cheap set-ups get more passes so the
	// median rests on a few seconds of work, not on one hiccup.
	setupPasses int
}

// gridWindow reports whether the workload's cells replay recorded
// single windows (the quick grids); paper-cell runs sampled regions live
// from a warmed checkpoint instead.
func (w workload) gridWindow() bool { return w.p.Regions <= 1 && w.p.FastForward == 0 }

// window is the number of instructions one detailed window steps.
func (w workload) window() uint64 { return w.p.Warmup + w.p.Measure }

// reps is how many cold timed grids a run of the given length measures.
func (w workload) reps(seconds int) int {
	return max(1, int(math.Round(float64(seconds)/w.repSeconds)))
}

// standardConfigs are the eight machines of the paper's Fig 1/11/12.
func standardConfigs() []sim.Config {
	cfgs := []sim.Config{sim.MachineConfig(sim.InO), sim.MachineConfig(sim.IMP), sim.MachineConfig(sim.OoO)}
	for _, n := range []int{8, 16, 32, 64, 128} {
		cfgs = append(cfgs, sim.SVRConfig(n))
	}
	return cfgs
}

var workloadNames = []string{"eval-grid", "spec-grid", "paper-cell"}

// lookupWorkload builds the named workload with its inputs generated
// from seed: the seed is the workloads.Scale generator seed, and the
// simulator sees nothing but the generated images.
func lookupWorkload(name string, seed int64) (workload, error) {
	quick := sim.QuickParams()
	quick.Scale.Seed = seed
	switch name {
	case "eval-grid":
		return workload{name: name, cfgs: standardConfigs(), specs: workloads.Evaluation(),
			p: quick, repSeconds: 20, setupPasses: 3}, nil
	case "spec-grid":
		return workload{name: name, cfgs: standardConfigs(), specs: workloads.Group("spec"),
			p: quick, repSeconds: 4, setupPasses: 5}, nil
	case "paper-cell":
		spec, err := workloads.Get("BFS_KR")
		if err != nil {
			return workload{}, err
		}
		p := sim.PaperParams()
		p.Scale.Seed = seed
		return workload{name: name,
			cfgs:  []sim.Config{sim.MachineConfig(sim.InO), sim.SVRConfig(16)},
			specs: []workloads.Spec{spec}, p: p, repSeconds: 23, setupPasses: 3}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames, ", "))
}

// cellRef names one cell of a workload grid: index into specs and cfgs.
type cellRef struct{ spec, cfg int }

// cells lists the grid in the scheduler's workload-major order.
func (w workload) cells() []cellRef {
	out := make([]cellRef, 0, len(w.specs)*len(w.cfgs))
	for s := range w.specs {
		for c := range w.cfgs {
			out = append(out, cellRef{s, c})
		}
	}
	return out
}

func (w workload) cellName(c cellRef) string {
	return w.cfgs[c.cfg].Label + "/" + w.specs[c.spec].Name
}
