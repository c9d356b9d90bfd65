package sim

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/workloads"
)

// quickSet is a cross-section of behaviour classes used for fast shape
// checks: stride-indirect (PR, IS), frontier-driven (BFS, SSSP), hash
// probing (HJ2/HJ8), multi-level indirection (Kangr), random access.
var quickSet = []string{"PR_KR", "BFS_UR", "SSSP_TW", "HJ2", "HJ8", "NAS-IS", "Randacc", "Kangr", "CC_LJN"}

// figRun executes the figure tests' grids on one shared engine, so
// figures over the same cells (Figs 1, 11, 12 and 13 share the standard
// configurations) simulate each cell once.
var figRun = NewEngine(nil).RunMatrix

func quick() ExpParams {
	return ExpParams{Params: QuickParams(), Workloads: quickSet}
}

func TestRunProducesSaneResult(t *testing.T) {
	res, err := RunByName("PR_KR", MachineConfig(InO), QuickParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Instrs == 0 || res.Cycles <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.CPI < 0.33 || res.CPI > 50 {
		t.Errorf("implausible CPI %v", res.CPI)
	}
	if res.Energy.NJPerInstr <= 0 {
		t.Error("no energy estimate")
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := RunByName("nonexistent", MachineConfig(InO), QuickParams()); err == nil {
		t.Fatal("expected error for unknown workload")
	}
}

func TestFig1Shapes(t *testing.T) {
	t.Parallel()
	r := runFig1(figRun, quick())
	svr16 := r.Values["speedup.SVR16"]
	svr64 := r.Values["speedup.SVR64"]
	oooV := r.Values["speedup.out-of-order"]
	impV := r.Values["speedup.IMP"]

	// Paper Fig 1 orderings: SVR16 beats the OoO core and IMP; wider SVR
	// beats narrower; everything beats the in-order baseline.
	if svr16 < 2.0 {
		t.Errorf("SVR16 speedup = %.2f, want >= 2 (paper 3.2)", svr16)
	}
	if svr16 <= oooV {
		t.Errorf("SVR16 (%.2f) must beat OoO (%.2f)", svr16, oooV)
	}
	if svr16 <= impV {
		t.Errorf("SVR16 (%.2f) must beat IMP (%.2f)", svr16, impV)
	}
	if svr64 <= svr16*0.98 {
		t.Errorf("SVR64 (%.2f) should not trail SVR16 (%.2f)", svr64, svr16)
	}
	// Energy: SVR around half the baseline and the most efficient.
	for _, label := range []string{"SVR16", "SVR64"} {
		if e := r.Values["energy."+label]; e > 0.6 {
			t.Errorf("%s energy = %.2f of baseline, want < 0.6 (paper ~0.47)", label, e)
		}
	}
	if r.Values["energy.SVR16"] >= r.Values["energy.out-of-order"] {
		t.Error("SVR16 must be more energy-efficient than OoO")
	}
}

func TestFig3DRAMDominatesInOrder(t *testing.T) {
	t.Parallel()
	r := runFig3(figRun, quick())
	inoDram := r.Values["dram.in-order"]
	oooDram := r.Values["dram.out-of-order"]
	if inoDram < 1.2*oooDram {
		t.Errorf("in-order DRAM CPI (%.2f) should far exceed OoO (%.2f), paper ~2.5x",
			inoDram, oooDram)
	}
	if frac := inoDram / r.Values["total.in-order"]; frac < 0.4 {
		t.Errorf("DRAM share of in-order CPI = %.2f, want the dominant component", frac)
	}
}

func TestFig11Orderings(t *testing.T) {
	t.Parallel()
	r := runFig11(figRun, quick())
	// IMP must fail (stay at baseline) on the patterns it cannot see.
	for _, wl := range []string{"HJ2", "HJ8", "Randacc", "SSSP_TW"} {
		ino := r.Values["cpi.in-order."+wl]
		impV := r.Values["cpi.IMP."+wl]
		if impV < 0.93*ino {
			t.Errorf("%s: IMP CPI %.2f should be ~= baseline %.2f (pattern not learnable)",
				wl, impV, ino)
		}
	}
	// IMP beats SVR on the long simple stride-indirect loop (NAS-IS, PR_KR).
	for _, wl := range []string{"NAS-IS", "PR_KR"} {
		if r.Values["cpi.IMP."+wl] >= r.Values["cpi.SVR16."+wl] {
			t.Errorf("%s: IMP (%.2f) should beat SVR16 (%.2f) per the paper",
				wl, r.Values["cpi.IMP."+wl], r.Values["cpi.SVR16."+wl])
		}
	}
	// SVR must substantially beat the baseline on the multi-level and
	// masked patterns IMP cannot touch.
	for _, wl := range []string{"Kangr", "Randacc", "SSSP_TW", "HJ2"} {
		ino := r.Values["cpi.in-order."+wl]
		svr := r.Values["cpi.SVR16."+wl]
		if svr > 0.75*ino {
			t.Errorf("%s: SVR16 CPI %.2f vs baseline %.2f — insufficient speedup", wl, svr, ino)
		}
	}
}

func TestFig12SVREnergyLowest(t *testing.T) {
	t.Parallel()
	r := runFig12(figRun, quick())
	svr := r.Values["energy.SVR16.avg"]
	for _, label := range []string{"in-order", "IMP", "out-of-order"} {
		if other := r.Values["energy."+label+".avg"]; svr >= other {
			t.Errorf("SVR16 energy (%.2f nJ/i) must undercut %s (%.2f nJ/i)", svr, label, other)
		}
	}
}

func TestFig13aAccuracy(t *testing.T) {
	t.Parallel()
	r := runFig13a(figRun, quick())
	svr16 := r.Values["accuracy.SVR16"]
	if svr16 < 0.85 {
		t.Errorf("SVR16 accuracy = %.2f, want >= 0.85 (paper ~95%%)", svr16)
	}
	// Unthrottled SVR should not be more accurate than throttled.
	if ml := r.Values["accuracy.SVR64-Maxlength"]; ml > r.Values["accuracy.SVR64"]+0.02 {
		t.Errorf("SVR64-Maxlength (%.2f) should not beat throttled SVR64 (%.2f)",
			ml, r.Values["accuracy.SVR64"])
	}
}

func TestFig13bCoverage(t *testing.T) {
	t.Parallel()
	r := runFig13b(figRun, quick())
	// SVR must shift DRAM fetches from demand to prefetch.
	if d := r.Values["coverage.SVR16.demand"]; d > 0.6 {
		t.Errorf("SVR16 leaves %.2f of baseline demand misses — low coverage", d)
	}
	if tech := r.Values["coverage.SVR16.technique"]; tech < 0.3 {
		t.Errorf("SVR16 prefetch share = %.2f of baseline loads, want substantial", tech)
	}
	// Baseline trivially covers itself (demand + its stride prefetcher).
	if tot := r.Values["coverage.in-order.total"]; tot < 0.9 || tot > 1.1 {
		t.Errorf("baseline total share = %.2f, want ~1", tot)
	}
}

func TestFig14SPECOverheadSmall(t *testing.T) {
	t.Parallel()
	p := ExpParams{Params: QuickParams(),
		Workloads: []string{"bwaves", "mcf", "deepsjeng", "lbm", "xz", "omnetpp"}}
	r := runFig14(figRun, p)
	if h := r.Values["hmean"]; h < 0.93 || h > 1.05 {
		t.Errorf("SPEC hmean normalized IPC = %.3f, want ~0.99 (paper -1%%)", h)
	}
}

func TestFig15TournamentWins(t *testing.T) {
	t.Parallel()
	p := ExpParams{Params: QuickParams()}
	r := runFig15(figRun, p)
	for _, n := range []string{"svr16", "svr64"} {
		tour := r.Values[n+".Tournament"]
		wait := r.Values[n+".LBD+Wait"]
		if tour <= wait {
			t.Errorf("%s: tournament (%.2f) must beat LBD+Wait (%.2f)", n, tour, wait)
		}
		// Tournament should be within a whisker of the best mechanism.
		best := 0.0
		for _, m := range []string{"LBD+Wait", "Maxlength", "LBD+Maxlength", "LBD+CV", "EWMA"} {
			if v := r.Values[n+"."+m]; v > best {
				best = v
			}
		}
		if tour < 0.9*best {
			t.Errorf("%s: tournament (%.2f) far from best mechanism (%.2f)", n, tour, best)
		}
	}
}

func TestFig16Flat(t *testing.T) {
	t.Parallel()
	p := ExpParams{Params: QuickParams()}
	r := runFig16(figRun, p)
	for _, n := range []string{"svr16", "svr64"} {
		lo, hi := r.Values[n+".x1"], r.Values[n+".x8"]
		if ratio := hi / lo; ratio < 0.95 || ratio > 1.35 {
			t.Errorf("%s: x8/x1 speedup ratio = %.2f, want ~1 (memory bound)", n, ratio)
		}
	}
}

func TestFig17MSHRScaling(t *testing.T) {
	t.Parallel()
	p := ExpParams{Params: QuickParams(), Workloads: []string{"NAS-IS", "Randacc", "PR_KR"}}
	r := runFig17MSHROnly(figRun, p) // reduced grid for tests
	// Speedup must grow with MSHRs and be positive even at 1 MSHR.
	if r.Values["svr16.mshr1"] <= 0.9 {
		t.Errorf("SVR16 with 1 MSHR = %.2f, should not slow down", r.Values["svr16.mshr1"])
	}
	if r.Values["svr16.mshr16"] <= r.Values["svr16.mshr1"] {
		t.Errorf("SVR16 should scale with MSHRs: 16 -> %.2f vs 1 -> %.2f",
			r.Values["svr16.mshr16"], r.Values["svr16.mshr1"])
	}
	// SVR64 benefits more from many MSHRs than SVR16 does.
	gain16 := r.Values["svr16.mshr32"] / r.Values["svr16.mshr8"]
	gain64 := r.Values["svr64.mshr32"] / r.Values["svr64.mshr8"]
	if gain64 < gain16*0.95 {
		t.Errorf("SVR64 MSHR gain (%.2f) should exceed SVR16's (%.2f)", gain64, gain16)
	}
}

func TestFig18BandwidthScaling(t *testing.T) {
	t.Parallel()
	p := ExpParams{Params: QuickParams(), Workloads: []string{"NAS-IS", "Randacc", "Kangr"}}
	r := runFig18(figRun, p)
	// More bandwidth must not hurt, and the curve should flatten
	// (saturation) between 50 and 100 GiB/s.
	for _, n := range []string{"svr16", "svr64"} {
		if r.Values[n+".bw100"] < r.Values[n+".bw12.5"]*0.95 {
			t.Errorf("%s: speedup fell with more bandwidth", n)
		}
		lowGain := r.Values[n+".bw25"] / r.Values[n+".bw12.5"]
		highGain := r.Values[n+".bw100"] / r.Values[n+".bw50"]
		if highGain > lowGain+0.25 {
			t.Errorf("%s: no saturation: low gain %.2f, high gain %.2f", n, lowGain, highGain)
		}
	}
}

func TestAblationShapes(t *testing.T) {
	t.Parallel()
	p := ExpParams{Params: QuickParams()}
	r := runAblations(figRun, p)
	// Register-copy checkpointing costs a little (paper 3.21 -> 3.16).
	if r.Values["svr16.regcopy"] > r.Values["svr16"] {
		t.Errorf("regcopy (%.2f) should not beat default (%.2f)",
			r.Values["svr16.regcopy"], r.Values["svr16"])
	}
	if r.Values["svr16.regcopy"] < 0.8*r.Values["svr16"] {
		t.Errorf("regcopy cost too large: %.2f vs %.2f", r.Values["svr16.regcopy"], r.Values["svr16"])
	}
	// DVR's no-recycle policy with 2 SRF regs collapses coverage.
	for _, n := range []string{"svr16", "svr64"} {
		lru := r.Values[n+".srf2.lru"]
		dvr := r.Values[n+".srf2.dvr"]
		if dvr >= lru {
			t.Errorf("%s: DVR recycling (%.2f) should trail LRU (%.2f) with 2 SRF regs",
				n, dvr, lru)
		}
	}
	// Without waiting mode the transient work explodes and hurts; SVR64
	// suffers more (paper: 0.56x, a slowdown).
	if r.Values["svr64.nowait"] >= r.Values["svr64"] {
		t.Errorf("SVR64 without waiting mode (%.2f) should collapse vs %.2f",
			r.Values["svr64.nowait"], r.Values["svr64"])
	}
	if r.Values["svr16.nowait"] >= r.Values["svr16"] {
		t.Errorf("SVR16 without waiting mode (%.2f) should trail %.2f",
			r.Values["svr16.nowait"], r.Values["svr16"])
	}
	// A couple of SRF registers already reach near-peak (paper: 2; our
	// hand-written kernels keep slightly more speculative values live,
	// so the knee sits between 2 and 4).
	if r.Values["svr16.srf4"] < 0.9*r.Values["svr16.srf8"] {
		t.Errorf("4 SRF regs (%.2f) should be near peak (%.2f)",
			r.Values["svr16.srf4"], r.Values["svr16.srf8"])
	}
	if r.Values["svr16.srf2"] < 0.7*r.Values["svr16.srf8"] {
		t.Errorf("2 SRF regs (%.2f) should be near peak (%.2f)",
			r.Values["svr16.srf2"], r.Values["svr16.srf8"])
	}
}

func TestTable2Values(t *testing.T) {
	r := runTable2(nil, ExpParams{})
	if k := r.Values["kib.16"]; k < 2.0 || k > 2.4 {
		t.Errorf("SVR-16 overhead = %.2f KiB, want ~2.17", k)
	}
	if k := r.Values["kib.128"]; k < 8 || k > 11 {
		t.Errorf("SVR-128 overhead = %.2f KiB, want ~9", k)
	}
}

func TestExperimentRegistry(t *testing.T) {
	want := []string{"fig1", "fig3", "fig11", "fig12", "table2", "table3",
		"fig13a", "fig13b", "fig14", "fig15", "fig16", "fig17", "fig18", "ablations"}
	for _, id := range want {
		if _, err := GetExperiment(id); err != nil {
			t.Errorf("missing experiment %s: %v", id, err)
		}
	}
	if _, err := GetExperiment("nope"); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

func TestReportRendering(t *testing.T) {
	r := runTable2(nil, ExpParams{})
	out := r.String()
	if out == "" || len(r.Tables) == 0 {
		t.Error("empty report")
	}
}

func TestRunMatrixIsolation(t *testing.T) {
	t.Parallel()
	// Two configs over the same workload must not contaminate each other
	// through shared memory (runs mutate memory).
	spec, _ := workloads.Get("NAS-IS")
	p := QuickParams()
	NewEngine(nil).RunMatrix([]Config{MachineConfig(InO), MachineConfig(InO)}, []workloads.Spec{spec}, p)
	a := Run(spec, MachineConfig(InO), p)
	bres := Run(spec, MachineConfig(InO), p)
	if a.Cycles != bres.Cycles || a.Instrs != bres.Instrs {
		t.Errorf("repeat runs differ: %d/%d vs %d/%d cycles/instrs",
			a.Cycles, a.Instrs, bres.Cycles, bres.Instrs)
	}
}

func TestSVRDRAMLoadOriginsTracked(t *testing.T) {
	res, _ := RunByName("NAS-IS", SVRConfig(16), QuickParams())
	if res.DRAMLoads[cache.OriginSVR] == 0 {
		t.Error("no SVR-originated DRAM loads recorded")
	}
	if res.SVRStats.Rounds == 0 {
		t.Error("no PRM rounds recorded")
	}
}
