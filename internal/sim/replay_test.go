package sim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/workloads"
)

// kindVariants returns four distinct configurations of one core kind —
// SVR at four vector lengths, the others at four L2 latencies — so a
// cohort of them has four real claims to produce (identical configs
// would share one content key).
func kindVariants(kind CoreKind) []Config {
	if kind == SVR {
		return []Config{SVRConfig(8), SVRConfig(16), SVRConfig(32), SVRConfig(64)}
	}
	var out []Config
	for i := 0; i < 4; i++ {
		cfg := MachineConfig(kind)
		if i > 0 {
			cfg.Hier.L2Latency += int64(2 * i)
			cfg.Label = fmt.Sprintf("%s-L2+%d", cfg.Label, 2*i)
		}
		out = append(out, cfg)
	}
	return out
}

// executeCold runs reqs as one ExecuteCohort group on a cold engine
// (result memoization off), so every member is a claim and the lockstep
// walk really runs, and checks the outcome provenance of a cold run.
func executeCold(t *testing.T, e *Engine, reqs []CellRequest) []Result {
	t.Helper()
	results, outs := ExecuteCohort(reqs, e.NewTracker(len(reqs)))
	for i, out := range outs {
		if out.Replayed != singleWindow(reqs[i].P) {
			t.Errorf("%s: Replayed=%v for Regions=%d", reqs[i].Cfg.Label, out.Replayed, reqs[i].P.Regions)
		}
		if out.Cached || out.Shared {
			t.Errorf("%s: marked Cached/Shared on a cold run", reqs[i].Cfg.Label)
		}
	}
	return results
}

// checkAgainstOracle is the fidelity contract of the one execution
// path: for every configuration of a core kind, on every given window
// and workload, the cell served as a lone cohort member (width 1) and as
// a member of a width-4 cohort must produce a Result bit-identical to
// the live emulator (sim.Run: the uncheckpointed, unrecorded driver).
// Run under -race it also proves the members' private views never share
// mutable state.
func checkAgainstOracle(t *testing.T, kind CoreKind, windows []testWindow) {
	cfgs := kindVariants(kind)
	for _, name := range []string{"PR_KR", "NAS-IS"} {
		spec := mustSpec(t, name)
		for _, w := range windows {
			t.Run(w.name+"/"+name, func(t *testing.T) {
				reqs := make([]CellRequest, len(cfgs))
				oracle := make([]Result, len(cfgs))
				for i, cfg := range cfgs {
					reqs[i] = CellRequest{Cfg: cfg, Spec: spec, P: w.p}
					oracle[i] = Run(spec, cfg, w.p)
				}
				if groups := PlanCohorts(reqs, nil); len(groups) != 1 {
					t.Fatalf("PlanCohorts = %v, want one width-%d group", groups, len(cfgs))
				}
				e := coldEngine()
				wide := executeCold(t, e, reqs)
				for i, cfg := range cfgs {
					lone := executeCold(t, e, reqs[i:i+1])[0]
					if !reflect.DeepEqual(lone, oracle[i]) {
						t.Errorf("%s: width-1 Result differs from live:\ngot  %+v\nlive %+v", cfg.Label, lone, oracle[i])
					}
					if !reflect.DeepEqual(wide[i], oracle[i]) {
						t.Errorf("%s: width-%d Result differs from live:\ngot  %+v\nlive %+v", cfg.Label, len(cfgs), wide[i], oracle[i])
					}
				}
			})
		}
	}
}

var allKinds = []CoreKind{InO, IMP, OoO, SVR}

// TestReplayMatchesLive checks every core kind against the live oracle
// on the windows that start at the image start (plain and sampled);
// TestReplayMatchesLiveCheckpointed covers the windows resumed from a
// shared warmed checkpoint. Together they run every testWindows case.
func TestReplayMatchesLive(t *testing.T) {
	t.Parallel()
	ws := testWindows()
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			checkAgainstOracle(t, kind, []testWindow{ws[0], ws[2]})
		})
	}
}

// TestReplayMatchesLiveCheckpointed is TestReplayMatchesLive for the
// checkpointed windows: the recording starts at the post-fast-forward
// point and the oracle runs the fast-forward itself, unshared.
func TestReplayMatchesLiveCheckpointed(t *testing.T) {
	t.Parallel()
	ws := testWindows()
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			checkAgainstOracle(t, kind, []testWindow{ws[1], ws[3]})
		})
	}
}

// TestMatrixReplayMatchesLive runs a small mixed-kind grid cold through
// the matrix runner: every cell must be served from a recording as a
// cohort member — SVR included — the scheduler must account for that,
// and every Result must match the live oracle.
func TestMatrixReplayMatchesLive(t *testing.T) {
	t.Parallel()
	specs := []workloads.Spec{mustSpec(t, "PR_KR"), mustSpec(t, "Randacc")}
	cfgs := []Config{MachineConfig(InO), MachineConfig(IMP), MachineConfig(OoO), SVRConfig(16)}
	p := testWindows()[0].p

	rs := coldEngine().RunMatrix(cfgs, specs, p)
	if want := len(cfgs) * len(specs); rs.Stats.Replayed != want {
		t.Errorf("replayed %d cells, want %d", rs.Stats.Replayed, want)
	}
	for _, c := range rs.Cells {
		if !c.Replayed {
			t.Errorf("cell %s/%s: Replayed=false, want true", c.Label, c.Workload)
		}
	}
	for _, cfg := range cfgs {
		for _, spec := range specs {
			got, _ := rs.Get(cfg.Label, spec.Name)
			if live := Run(spec, cfg, p); !reflect.DeepEqual(got, live) {
				t.Errorf("cell %s/%s differs from the live oracle", cfg.Label, spec.Name)
			}
		}
	}
}
