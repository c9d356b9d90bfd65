package sim

import (
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/workloads"
)

// TestEnginesAreIsolated: two engines in one process share no options,
// no stored results, no observer and no counters, even while their grids
// run at the same time.
func TestEnginesAreIsolated(t *testing.T) {
	t.Parallel()
	p := Params{Scale: workloads.TinyScale(), Warmup: 2_000, Measure: 8_000}
	spec := mustSpec(t, "Randacc")
	coldObs, warmObs := &recorder{}, &recorder{}
	cold, warm := NewEngine(coldObs), NewEngine(warmObs)
	cold.Artifacts().SetClassEnabled(artifact.Result, false)

	// The same grid, run twice on each engine, both engines at once. The
	// labels differ, which keeps the cells' content (and result keys)
	// the same but tells the observers' events apart.
	grid := func(prefix string) []Config {
		cfgs := []Config{MachineConfig(InO), SVRConfig(8)}
		for i := range cfgs {
			cfgs[i].Label = prefix + cfgs[i].Label
		}
		return cfgs
	}
	coldCfgs, warmCfgs := grid("cold-"), grid("warm-")
	var coldSets, warmSets [2]*ResultSet
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range coldSets {
			coldSets[i] = cold.RunMatrix(coldCfgs, []workloads.Spec{spec}, p)
		}
	}()
	go func() {
		defer wg.Done()
		for i := range warmSets {
			warmSets[i] = warm.RunMatrix(warmCfgs, []workloads.Spec{spec}, p)
		}
	}()
	wg.Wait()

	// Options: only the warm engine serves results from its store.
	for i, rs := range coldSets {
		if rs.Stats.Cached != 0 || rs.Stats.Shared != 0 {
			t.Errorf("cold engine, run %d: %+v, want every cell simulated", i, rs.Stats)
		}
	}
	if st := warmSets[1].Stats; st.Cached != 2 {
		t.Errorf("warm engine, second run: %+v, want both cells cached", st)
	}
	if hits := cold.Artifacts().Stats()[artifact.Result].Hits; hits != 0 {
		t.Errorf("cold engine's store reports %d result hits", hits)
	}

	// Observers: each sees only its own engine's cells.
	own := func(name string, obs *recorder, cfgs []Config) {
		labels := map[string]bool{"": true} // shared passes carry no cell identity
		for _, c := range cfgs {
			labels[c.Label] = true
		}
		if len(obs.cells) != 2*len(cfgs) || len(obs.phases) == 0 || len(obs.arts) == 0 {
			t.Errorf("%s observer saw %d cells, %d phases, %d artifacts; want %d cells and some of each",
				name, len(obs.cells), len(obs.phases), len(obs.arts), 2*len(cfgs))
		}
		for _, ev := range obs.cells {
			if !labels[ev.Label] {
				t.Errorf("%s observer saw another engine's cell %s", name, ev.Label)
			}
		}
		for _, ev := range obs.phases {
			if !labels[ev.Label] {
				t.Errorf("%s observer saw another engine's phase of %s", name, ev.Label)
			}
		}
		for _, ev := range obs.arts {
			if !labels[ev.Label] {
				t.Errorf("%s observer saw another engine's artifact of %s", name, ev.Label)
			}
		}
	}
	own("cold", coldObs, coldCfgs)
	own("warm", warmObs, warmCfgs)

	// Status and totals: each engine counts only its own work. Each
	// recorded the window once; the cold engine stepped two width-2
	// cohorts, the warm one a single cohort and then served its second
	// run from the store.
	ct, wt := cold.Totals(), warm.Totals()
	if ct.Cohorts != 2 || ct.CohortCells != 4 || ct.CohortWidths[2] != 2 || ct.Recordings != 1 {
		t.Errorf("cold totals %+v, want 2 width-2 cohorts over 1 recording", ct)
	}
	if wt.Cohorts != 1 || wt.CohortCells != 2 || wt.Recordings != 1 {
		t.Errorf("warm totals %+v, want 1 width-2 cohort over 1 recording", wt)
	}
	tr := cold.NewTracker(5)
	defer tr.Close()
	if s := warm.Status(); s.Active || s.Cells != 0 {
		t.Errorf("warm engine's status counts the cold engine's open grid: %+v", s)
	}
	if s := cold.Status(); !s.Active || s.Cells != 5 {
		t.Errorf("cold engine's status = %+v, want its one open 5-cell grid", s)
	}
}
