package sim

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/artifact"
)

// TestPhaseTimesJSONRoundTrip: the wire form carries every phase under
// its stable name (nanoseconds), unknown keys are ignored, and missing
// keys read as zero.
func TestPhaseTimesJSONRoundTrip(t *testing.T) {
	var pt PhaseTimes
	pt.Add(PhaseBuild, 3*time.Millisecond)
	pt.Add(PhaseTiming, 2*time.Second)
	pt.Add(PhaseStoreWait, time.Microsecond)

	blob, err := json.Marshal(pt)
	if err != nil {
		t.Fatal(err)
	}
	var asMap map[string]int64
	if err := json.Unmarshal(blob, &asMap); err != nil {
		t.Fatal(err)
	}
	if len(asMap) != int(NumPhases) {
		t.Errorf("wire form has %d keys, want %d (stable schema): %s", len(asMap), NumPhases, blob)
	}
	for _, p := range AllPhases() {
		if got, want := asMap[p.String()], int64(pt[p]); got != want {
			t.Errorf("%s = %d ns on the wire, want %d", p, got, want)
		}
	}

	var back PhaseTimes
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != pt {
		t.Errorf("round trip changed value: %v vs %v", back, pt)
	}

	var sparse PhaseTimes
	if err := json.Unmarshal([]byte(`{"timing":5,"warp":9}`), &sparse); err != nil {
		t.Fatal(err)
	}
	if sparse[PhaseTiming] != 5 || sparse.Total() != 5 {
		t.Errorf("sparse decode: %v, want timing=5 only", sparse)
	}
}

// TestParsePhase: every phase's String parses back to itself; junk and
// out-of-range values are handled.
func TestParsePhase(t *testing.T) {
	for _, p := range AllPhases() {
		got, err := ParsePhase(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePhase(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	if _, err := ParsePhase("warp"); err == nil {
		t.Error("ParsePhase accepted unknown phase")
	}
	if s := Phase(200).String(); s != "unknown" {
		t.Errorf("out-of-range Phase.String() = %q", s)
	}
}

// TestPhaseTimesArithmetic: Split apportions a cohort's shared cost
// evenly, AddAll folds, and out-of-range Add is a no-op.
func TestPhaseTimesArithmetic(t *testing.T) {
	var pt PhaseTimes
	pt.Add(PhaseRecord, 8*time.Second)
	pt.Add(PhaseDecode, 4*time.Second)
	pt.Add(NumPhases, time.Hour) // out of range: dropped
	if pt.Total() != 12*time.Second {
		t.Errorf("Total = %v, want 12s", pt.Total())
	}
	quarter := pt.Split(4)
	if quarter[PhaseRecord] != 2*time.Second || quarter[PhaseDecode] != time.Second {
		t.Errorf("Split(4) = %v", quarter)
	}
	if pt.Split(1) != pt || pt.Split(0) != pt {
		t.Error("Split(k<=1) must be the identity")
	}
	var sum PhaseTimes
	sum.AddAll(pt)
	sum.AddAll(quarter)
	if sum[PhaseRecord] != 10*time.Second {
		t.Errorf("AddAll: record = %v, want 10s", sum[PhaseRecord])
	}
	if s := pt.Seconds(); s["record"] != 8 || len(s) != int(NumPhases) {
		t.Errorf("Seconds() = %v", s)
	}
}

// TestPhaseHooksDeliver: the engine's observer sees phaseCtx emissions
// with the cell's identity, and the same add() call banks into the
// accumulator.
func TestPhaseHooksDeliver(t *testing.T) {
	t.Parallel()
	obs := &recorder{}
	var pt PhaseTimes
	pc := NewEngine(obs).phaseCtx("SVR16", "HJ2", &pt)
	pc.add(PhaseTiming, 5*time.Millisecond)
	pc.add(PhaseTiming, 0) // non-positive segments are dropped
	pc.artifact(artifact.Key{Class: artifact.Result, ID: "k"},
		artifact.Outcome{Hit: true}, time.Millisecond)

	phases, arts := obs.phases, obs.arts
	if len(phases) != 1 || phases[0].Label != "SVR16" || phases[0].Workload != "HJ2" ||
		phases[0].Phase != PhaseTiming || phases[0].Dur != 5*time.Millisecond {
		t.Errorf("observer saw phases %+v", phases)
	}
	if pt[PhaseTiming] != 5*time.Millisecond {
		t.Errorf("accumulator got %v, want 5ms", pt[PhaseTiming])
	}
	if len(arts) != 1 || !arts[0].Hit || arts[0].Label != "SVR16" {
		t.Errorf("observer saw artifacts %+v", arts)
	}
}

// TestPhaseEmitOffDoesNotAllocate: on an engine with no observer the
// emission sites must cost one nil check — no allocation, no lock — so
// cell execution is unchanged when nobody observes.
func TestPhaseEmitOffDoesNotAllocate(t *testing.T) {
	var pt PhaseTimes
	pc := NewEngine(nil).phaseCtx("SVR16", "HJ2", &pt)
	k := artifact.Key{Class: artifact.Result, ID: "k"}
	if n := testing.AllocsPerRun(1000, func() {
		pc.add(PhaseTiming, time.Millisecond)
		pc.artifact(k, artifact.Outcome{}, time.Millisecond)
	}); n != 0 {
		t.Errorf("observer-off emission allocates %.1f times per call", n)
	}
}

// TestCellPhasesCoverWall: a fresh (uncached) quick cell must attribute
// nearly all of its wall time to phases — the build remainder rule means
// the decomposition sums to the measured wall, minus only the few
// time.Now seams between segments.
func TestCellPhasesCoverWall(t *testing.T) {
	t.Parallel()
	req := CellRequest{Cfg: SVRConfig(16), Spec: mustSpec(t, "Randacc"), P: QuickParams()}
	_, outs := ExecuteCohort([]CellRequest{req}, coldEngine().NewTracker(1))
	out := outs[0]
	if out.Cached || out.Shared {
		t.Fatalf("expected a fresh simulation, got %+v", out)
	}
	if out.Wall <= 0 {
		t.Fatalf("no wall time measured: %+v", out)
	}
	total := out.Phases.Total()
	if total < out.Wall*8/10 || total > out.Wall*21/20 {
		t.Errorf("phases attribute %v of %v wall (%.1f%%), want within [80%%, 105%%]\n%v",
			total, out.Wall, 100*float64(total)/float64(out.Wall), out.Phases)
	}
	if out.Phases[PhaseTiming] <= 0 {
		t.Errorf("fresh cell reports no timing phase: %v", out.Phases)
	}
}

// TestEngineStatusAggregatesTrackers: concurrent jobs' trackers on one
// engine fold into one grid view — cells, completions and phase wall
// all sum.
func TestEngineStatusAggregatesTrackers(t *testing.T) {
	t.Parallel()
	e := NewEngine(nil)
	t1 := e.NewTracker(4)
	defer t1.Close()
	t2 := e.NewTracker(6)
	defer t2.Close()

	var o1, o2 CellEvent
	o1.Phases.Add(PhaseTiming, 3*time.Second)
	o1.Phases.Add(PhaseBuild, time.Second)
	o1.Instrs = 1000
	o2.Phases.Add(PhaseTiming, 5*time.Second)
	o2.Cached = true
	o2.Instrs = 500
	t1.CellDone(o1)
	t2.CellDone(o2)
	t2.CohortDone(3)

	s := e.Status()
	if !s.Active {
		t.Fatal("open trackers but Status reports inactive")
	}
	if s.Cells != 10 || s.Done != 2 || s.Cached != 1 || s.Instrs != 1500 || s.CohortCells != 3 {
		t.Errorf("Status = %+v, want 10 cells, 2 done, 1 cached, 1500 instrs, 3 cohort cells", s)
	}
	if s.PhaseWall[PhaseTiming] != 8*time.Second || s.PhaseWall[PhaseBuild] != time.Second {
		t.Errorf("PhaseWall = %v, want timing 8s, build 1s", s.PhaseWall)
	}
	t1.Close()
	t2.Close()
	if s := e.Status(); s.Active || s.Cells != 0 {
		t.Errorf("closed trackers still counted: %+v", s)
	}
}

// TestProjectETASteady: the windowed projection shrinks as wall time
// passes with no new completions (no sawtooth), and the pre-window
// fallback still projects from completion counts.
func TestProjectETASteady(t *testing.T) {
	now := time.Now()
	s := GridStatus{Active: true, Cells: 100, Done: 32, Instrs: 32e6, Elapsed: 20 * time.Second}
	win := rateWindow{instrs: 16e6, span: 8 * time.Second, last: now.Add(-2 * time.Second)}

	// rate = 2M instr/s, 68 cells × 1M instr left = 34s, minus the 2s
	// since the last completion: 32s.
	eta := projectETA(&s, win, now)
	if eta < 31*time.Second || eta > 33*time.Second {
		t.Errorf("ETA = %v, want ≈32s", eta)
	}
	// Three more wall seconds, no new completions: a count-based
	// projection would not move; the windowed one must keep shrinking.
	eta2 := projectETA(&s, win, now.Add(3*time.Second))
	if eta2 >= eta {
		t.Errorf("ETA did not shrink with wall time: %v then %v", eta, eta2)
	}
	if diff := eta - eta2 - 3*time.Second; diff < -100*time.Millisecond || diff > 100*time.Millisecond {
		t.Errorf("ETA shrank by %v over 3s of wall", eta-eta2)
	}
	// The floor: never report zero (= unknown) for an in-flight grid.
	if eta3 := projectETA(&s, win, now.Add(time.Hour)); eta3 != time.Second {
		t.Errorf("ETA floor = %v, want 1s", eta3)
	}
	// No measured window yet: fall back to completion counts, with the
	// shared production wall excluded. (20s-4s)/32 done × 68 left = 34s.
	s.CkptWall, s.RecWall = 3*time.Second, time.Second
	fallback := projectETA(&s, rateWindow{}, now)
	if fallback != 34*time.Second {
		t.Errorf("fallback ETA = %v, want 34s", fallback)
	}
}
