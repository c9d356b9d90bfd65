package sim

import "testing"

func TestMulticoreScaling(t *testing.T) {
	t.Parallel()
	p := ExpParams{Params: QuickParams(), Workloads: []string{"NAS-IS", "Randacc", "PR_KR", "Kangr"}}
	r := runMulticore(NewEngine(nil).RunMatrix, p)
	// Aggregate IPC must grow substantially with core count: a single
	// SVR core leaves most of the channel idle (§VI-E).
	if r.Values["agg.4"] < 2.5*r.Values["agg.1"] {
		t.Errorf("4-core aggregate %.2f should be well above 2.5x solo %.2f",
			r.Values["agg.4"], r.Values["agg.1"])
	}
	if r.Values["agg.8"] < r.Values["agg.4"] {
		t.Errorf("8-core aggregate %.2f regressed below 4-core %.2f",
			r.Values["agg.8"], r.Values["agg.4"])
	}
	// Per-core slowdown under sharing stays mild at this bandwidth.
	if r.Values["percore.4"] < 0.75 {
		t.Errorf("per-core IPC at 4 cores dropped to %.2f of solo", r.Values["percore.4"])
	}
}
