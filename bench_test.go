package repro

// One benchmark per table and figure of the paper's evaluation. Each
// regenerates its experiment on a representative workload subset at quick
// scale and reports the headline numbers as custom metrics, so
// `go test -bench=. -benchmem` reprints the whole evaluation. Run the
// full-size versions with `go run ./cmd/svrsim run <id>`.

import (
	"testing"

	"repro/internal/artifact"
	"repro/internal/cache"
	"repro/internal/cpu/inorder"
	"repro/internal/cpu/ooo"
	"repro/internal/emu"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// benchSet covers every behaviour class at tractable cost.
var benchSet = []string{"PR_KR", "BFS_UR", "SSSP_TW", "CC_LJN", "BC_ORK",
	"HJ2", "HJ8", "NAS-IS", "NAS-CG", "Randacc", "Kangr", "Camel", "G500"}

// smallSet keeps the heavyweight sweeps affordable.
var smallSet = []string{"PR_KR", "NAS-IS", "Randacc", "SSSP_TW"}

func expParams(wls []string) sim.ExpParams {
	return sim.ExpParams{Params: sim.QuickParams(), Workloads: wls}
}

func runExperiment(b *testing.B, id string, wls []string, metrics []string) {
	b.Helper()
	// The memoized run cache would turn every iteration after the first
	// into a lookup; benchmarks measure real simulation work, so run cold.
	eng := sim.NewEngine(nil)
	eng.Artifacts().SetClassEnabled(artifact.Result, false)
	e, err := sim.GetExperiment(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		rep := e.Run(eng.RunMatrix, expParams(wls))
		if i == b.N-1 {
			for _, m := range metrics {
				if v, ok := rep.Values[m]; ok {
					b.ReportMetric(v, m)
				}
			}
		}
	}
}

// BenchmarkFig1 regenerates the headline speedup/energy figure.
func BenchmarkFig1(b *testing.B) {
	runExperiment(b, "fig1", benchSet, []string{
		"speedup.SVR16", "speedup.SVR64", "speedup.out-of-order", "speedup.IMP",
		"energy.SVR16", "energy.out-of-order"})
}

// BenchmarkFig3 regenerates the in-order vs OoO CPI stacks.
func BenchmarkFig3(b *testing.B) {
	runExperiment(b, "fig3", benchSet, []string{
		"dram.in-order", "dram.out-of-order", "total.in-order", "total.out-of-order"})
}

// BenchmarkFig11 regenerates the per-workload CPI table.
func BenchmarkFig11(b *testing.B) {
	runExperiment(b, "fig11", benchSet, []string{
		"cpi.in-order.avg", "cpi.IMP.avg", "cpi.out-of-order.avg",
		"cpi.SVR16.avg", "cpi.SVR128.avg"})
}

// BenchmarkFig12 regenerates the per-workload energy table.
func BenchmarkFig12(b *testing.B) {
	runExperiment(b, "fig12", benchSet, []string{
		"energy.in-order.avg", "energy.out-of-order.avg", "energy.SVR16.avg"})
}

// BenchmarkFig13a regenerates the prefetch-accuracy comparison.
func BenchmarkFig13a(b *testing.B) {
	runExperiment(b, "fig13a", benchSet, []string{
		"accuracy.IMP", "accuracy.SVR16", "accuracy.SVR16-Maxlength",
		"accuracy.SVR64", "accuracy.SVR64-Maxlength"})
}

// BenchmarkFig13b regenerates the coverage breakdown.
func BenchmarkFig13b(b *testing.B) {
	runExperiment(b, "fig13b", benchSet, []string{
		"coverage.SVR16.demand", "coverage.SVR16.technique", "coverage.SVR16.total",
		"coverage.IMP.total"})
}

// BenchmarkFig14 regenerates the SPEC-overhead study on a proxy subset.
func BenchmarkFig14(b *testing.B) {
	runExperiment(b, "fig14",
		[]string{"bwaves", "mcf", "deepsjeng", "lbm", "xz", "omnetpp", "leela", "wrf"},
		[]string{"hmean"})
}

// BenchmarkFig15 regenerates the loop-bound mechanism comparison.
func BenchmarkFig15(b *testing.B) {
	runExperiment(b, "fig15", nil, []string{
		"svr16.Tournament", "svr16.LBD+Wait", "svr16.Maxlength",
		"svr64.Tournament", "svr64.LBD+Wait", "svr64.Maxlength"})
}

// BenchmarkFig16 regenerates the scalars-per-vector-unit study.
func BenchmarkFig16(b *testing.B) {
	runExperiment(b, "fig16", smallSet, []string{
		"svr16.x1", "svr16.x8", "svr64.x1", "svr64.x8"})
}

// BenchmarkFig17 regenerates the MSHR/PTW sensitivity sweep.
func BenchmarkFig17(b *testing.B) {
	runExperiment(b, "fig17", smallSet, []string{
		"svr16.mshr1.ptw4", "svr16.mshr8.ptw4", "svr16.mshr32.ptw4",
		"svr64.mshr8.ptw4", "svr64.mshr16.ptw4", "svr64.mshr32.ptw4"})
}

// BenchmarkFig18 regenerates the bandwidth sensitivity sweep.
func BenchmarkFig18(b *testing.B) {
	runExperiment(b, "fig18", smallSet, []string{
		"svr16.bw12.5", "svr16.bw50", "svr16.bw100",
		"svr64.bw12.5", "svr64.bw50", "svr64.bw100"})
}

// BenchmarkTable2 regenerates the hardware-overhead budget.
func BenchmarkTable2(b *testing.B) {
	runExperiment(b, "table2", nil, []string{"kib.8", "kib.16", "kib.64", "kib.128"})
}

// BenchmarkAblations regenerates the §VI-D design-choice ablations.
func BenchmarkAblations(b *testing.B) {
	runExperiment(b, "ablations", smallSet, []string{
		"svr16", "svr16.regcopy", "svr16.srf2.lru", "svr16.srf2.dvr",
		"svr16.nowait", "svr64.nowait"})
}

// --- substrate micro-benchmarks --------------------------------------

// BenchmarkEmulator measures raw functional-emulation throughput
// (instructions per op).
func BenchmarkEmulator(b *testing.B) {
	spec, err := workloads.Get("NAS-IS")
	if err != nil {
		b.Fatal(err)
	}
	inst := spec.Build(workloads.BenchScale())
	cpu := emu.New(inst.Prog, inst.Mem)
	b.ResetTimer()
	var rec emu.DynInstr
	for i := 0; i < b.N; i++ {
		if !cpu.Step(&rec) {
			b.Fatal("program ended during benchmark")
		}
	}
}

// BenchmarkInOrderTiming measures the in-order core model's throughput.
func BenchmarkInOrderTiming(b *testing.B) {
	spec, _ := workloads.Get("PR_KR")
	inst := spec.Build(workloads.BenchScale())
	h := cache.NewHierarchy(cache.DefaultConfig())
	core := inorder.New(inorder.DefaultConfig(), h)
	cpu := emu.New(inst.Prog, inst.Mem)
	b.ResetTimer()
	var rec emu.DynInstr
	for i := 0; i < b.N; i++ {
		if !cpu.Step(&rec) {
			b.Fatal("program ended")
		}
		core.Issue(&rec)
	}
}

// BenchmarkOoOTiming measures the out-of-order core model's throughput.
func BenchmarkOoOTiming(b *testing.B) {
	spec, _ := workloads.Get("PR_KR")
	inst := spec.Build(workloads.BenchScale())
	h := cache.NewHierarchy(cache.DefaultConfig())
	core := ooo.New(ooo.DefaultConfig(), h)
	cpu := emu.New(inst.Prog, inst.Mem)
	b.ResetTimer()
	var rec emu.DynInstr
	for i := 0; i < b.N; i++ {
		if !cpu.Step(&rec) {
			b.Fatal("program ended")
		}
		core.Issue(&rec)
	}
}

// BenchmarkSVRTiming measures the full SVR machine's simulation
// throughput (emulation + in-order timing + runahead engine).
func BenchmarkSVRTiming(b *testing.B) {
	res, err := sim.RunByName("NAS-IS", sim.SVRConfig(16),
		sim.Params{Scale: workloads.BenchScale(), Warmup: 0, Measure: uint64(b.N)})
	if err != nil {
		b.Fatal(err)
	}
	if res.Instrs == 0 {
		b.Fatal("no instructions simulated")
	}
}
