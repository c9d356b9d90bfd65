package sim

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/svr"
)

func init() {
	registerExperiment(Experiment{
		ID:    "fig15",
		Title: "Loop-bound prediction mechanisms (normalized IPC vs in-order)",
		Run:   runFig15,
	})
	registerExperiment(Experiment{
		ID:    "fig16",
		Title: "Scalars per vector unit (transient issue width)",
		Run:   runFig16,
	})
	registerExperiment(Experiment{
		ID:    "fig17",
		Title: "MSHR and page-table-walker sensitivity",
		Run:   runFig17,
	})
	registerExperiment(Experiment{
		ID:    "fig18",
		Title: "Memory-bandwidth sensitivity",
		Run:   runFig18,
	})
	registerExperiment(Experiment{
		ID:    "ablations",
		Title: "§VI-D ablations: register copy, SRF recycling, waiting mode, SRF size",
		Run:   runAblations,
	})
}

// The sweeps below assemble every point of a figure into one flat config
// list and submit a single matrix, so the scheduler runs the whole sweep
// cell-parallel instead of one configuration at a time. Points that
// coincide with the default machines (e.g. the 16-MSHR column, the
// 50 GiB/s row) hash to the same cells as Fig 1's grid and come straight
// from the run cache.

var fig15Modes = []svr.LoopBoundMode{
	svr.LBDWait, svr.Maxlength, svr.LBDMaxlength, svr.LBDCV, svr.EWMAOnly, svr.Tournament,
}

func runFig15(run MatrixRunner, p ExpParams) *Report {
	r := newReport(run, "fig15", "loop-bound prediction mechanisms")
	specs := sweepWorkloads(p)

	cfgs := []Config{MachineConfig(InO)}
	for _, n := range []int{16, 64} {
		for _, mode := range fig15Modes {
			cfg := SVRConfig(n)
			cfg.SVR.LoopBound = mode
			cfg.Label = fmt.Sprintf("SVR%d-%s", n, mode)
			cfgs = append(cfgs, cfg)
		}
	}
	m := r.matrix(cfgs, specs, p.Params)
	base := m.Row("in-order")

	for _, n := range []int{16, 64} {
		t := stats.NewTable(fmt.Sprintf("mechanism (SVR-%d)", n), "norm IPC (hmean)")
		for _, mode := range fig15Modes {
			label := fmt.Sprintf("SVR%d-%s", n, mode)
			sp := hmeanSpeedup(base, m.Row(label))
			t.AddRowF(mode.String(), sp)
			r.Values[fmt.Sprintf("svr%d.%s", n, mode)] = sp
		}
		r.Tables = append(r.Tables, t)
	}
	r.Notes = append(r.Notes,
		"paper: LBD+Wait worst (waits behind long-latency loads); Tournament best of both")
	return r
}

func runFig16(run MatrixRunner, p ExpParams) *Report {
	r := newReport(run, "fig16", "scalars per vector unit")
	specs := sweepWorkloads(p)
	cfgs := []Config{MachineConfig(InO)}
	for _, n := range []int{16, 64} {
		for _, sps := range []int{1, 2, 4, 8} {
			cfg := SVRConfig(n)
			cfg.SVR.ScalarsPerSlot = sps
			cfg.Label = fmt.Sprintf("SVR%d-x%d", n, sps)
			cfgs = append(cfgs, cfg)
		}
	}
	m := r.matrix(cfgs, specs, p.Params)
	base := m.Row("in-order")
	t := stats.NewTable("scalars/unit", "SVR16 norm IPC", "SVR64 norm IPC")
	for _, sps := range []int{1, 2, 4, 8} {
		s16 := hmeanSpeedup(base, m.Row(fmt.Sprintf("SVR16-x%d", sps)))
		s64 := hmeanSpeedup(base, m.Row(fmt.Sprintf("SVR64-x%d", sps)))
		t.AddRowF(fmt.Sprintf("%d", sps), s16, s64)
		r.Values[fmt.Sprintf("svr16.x%d", sps)] = s16
		r.Values[fmt.Sprintf("svr64.x%d", sps)] = s64
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes, "paper: performance is flat — PRM is memory-bound, not issue-bound")
	return r
}

func runFig17(run MatrixRunner, p ExpParams) *Report {
	r := newReport(run, "fig17", "MSHR / PTW sensitivity")
	specs := sweepWorkloads(p)
	mshrs := []int{1, 2, 4, 8, 16, 24, 32}
	ptws := []int{2, 4, 6}

	var cfgs []Config
	for _, msh := range mshrs {
		baseCfg := MachineConfig(InO)
		baseCfg.Hier.L1MSHRs = msh
		baseCfg.Label = fmt.Sprintf("in-order-m%d", msh)
		cfgs = append(cfgs, baseCfg)
		for _, n := range []int{16, 64} {
			for _, ptw := range ptws {
				cfg := SVRConfig(n)
				cfg.Hier.L1MSHRs = msh
				cfg.Hier.NumPTWs = ptw
				cfg.Label = fmt.Sprintf("SVR%d-m%d-p%d", n, msh, ptw)
				cfgs = append(cfgs, cfg)
			}
		}
	}
	m := r.matrix(cfgs, specs, p.Params)

	t := stats.NewTable("MSHRs", "SVR16/ptw2", "SVR16/ptw4", "SVR16/ptw6",
		"SVR64/ptw2", "SVR64/ptw4", "SVR64/ptw6")
	for _, msh := range mshrs {
		base := m.Row(fmt.Sprintf("in-order-m%d", msh))
		cells := make([]float64, 0, 6)
		for _, n := range []int{16, 64} {
			for _, ptw := range ptws {
				sp := hmeanSpeedup(base, m.Row(fmt.Sprintf("SVR%d-m%d-p%d", n, msh, ptw)))
				cells = append(cells, sp)
				r.Values[fmt.Sprintf("svr%d.mshr%d.ptw%d", n, msh, ptw)] = sp
			}
		}
		t.AddRowF(fmt.Sprintf("%d", msh), cells...)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"paper: SVR16 saturates around 8 MSHRs, SVR64 around 16; PTWs matter only at high MSHRs")
	return r
}

// runFig17MSHROnly is the reduced grid used by tests: the MSHR axis at
// the default 4 page-table walkers.
func runFig17MSHROnly(run MatrixRunner, p ExpParams) *Report {
	r := newReport(run, "fig17-mshr", "MSHR sensitivity (PTW=4)")
	specs := sweepWorkloads(p)
	mshrs := []int{1, 8, 16, 32}

	var cfgs []Config
	for _, msh := range mshrs {
		baseCfg := MachineConfig(InO)
		baseCfg.Hier.L1MSHRs = msh
		baseCfg.Label = fmt.Sprintf("in-order-m%d", msh)
		cfgs = append(cfgs, baseCfg)
		for _, n := range []int{16, 64} {
			cfg := SVRConfig(n)
			cfg.Hier.L1MSHRs = msh
			cfg.Label = fmt.Sprintf("SVR%d-m%d", n, msh)
			cfgs = append(cfgs, cfg)
		}
	}
	m := r.matrix(cfgs, specs, p.Params)

	t := stats.NewTable("MSHRs", "SVR16", "SVR64")
	for _, msh := range mshrs {
		base := m.Row(fmt.Sprintf("in-order-m%d", msh))
		cells := make([]float64, 0, 2)
		for _, n := range []int{16, 64} {
			sp := hmeanSpeedup(base, m.Row(fmt.Sprintf("SVR%d-m%d", n, msh)))
			cells = append(cells, sp)
			r.Values[fmt.Sprintf("svr%d.mshr%d", n, msh)] = sp
		}
		t.AddRowF(fmt.Sprintf("%d", msh), cells...)
	}
	r.Tables = append(r.Tables, t)
	return r
}

func runFig18(run MatrixRunner, p ExpParams) *Report {
	r := newReport(run, "fig18", "memory bandwidth sensitivity")
	specs := sweepWorkloads(p)
	bws := []float64{12.5, 25, 50, 100}

	var cfgs []Config
	for _, bw := range bws {
		baseCfg := MachineConfig(InO)
		baseCfg.Hier.DRAM.BandwidthGBps = bw
		baseCfg.Label = fmt.Sprintf("in-order-bw%g", bw)
		cfgs = append(cfgs, baseCfg)
		for _, n := range []int{16, 64} {
			cfg := SVRConfig(n)
			cfg.Hier.DRAM.BandwidthGBps = bw
			cfg.Label = fmt.Sprintf("SVR%d-bw%g", n, bw)
			cfgs = append(cfgs, cfg)
		}
	}
	m := r.matrix(cfgs, specs, p.Params)

	t := stats.NewTable("GiB/s", "SVR16 norm IPC", "SVR64 norm IPC")
	for _, bw := range bws {
		base := m.Row(fmt.Sprintf("in-order-bw%g", bw))
		cells := make([]float64, 0, 2)
		for _, n := range []int{16, 64} {
			sp := hmeanSpeedup(base, m.Row(fmt.Sprintf("SVR%d-bw%g", n, bw)))
			cells = append(cells, sp)
			r.Values[fmt.Sprintf("svr%d.bw%g", n, bw)] = sp
		}
		t.AddRowF(fmt.Sprintf("%.1f", bw), cells...)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"paper: SVR64 gains more from bandwidth; both saturate (SVR does not exhaust the channel)")
	return r
}

func runAblations(run MatrixRunner, p ExpParams) *Report {
	r := newReport(run, "ablations", "§VI-D design-choice ablations")
	specs := sweepWorkloads(p)

	// Register every variant first, then run them as one matrix.
	type variant struct {
		key, label string
		cfg        Config
	}
	var variants []variant
	add := func(key, label string, cfg Config) {
		variants = append(variants, variant{key, label, cfg})
	}

	add("svr16", "SVR16 (default)", SVRConfig(16))
	add("svr64", "SVR64 (default)", SVRConfig(64))

	// Lockstep coupling cost: DVR-style full register-file checkpoint.
	cp := SVRConfig(16)
	cp.SVR.RegCopyCycles = 16
	cp.Label = "SVR16+regcopy"
	add("svr16.regcopy", "SVR16 + register-copy cost", cp)

	// Register recycling with a tiny SRF: SVR's LRU vs DVR's policy.
	for _, n := range []int{16, 64} {
		lru := SVRConfig(n)
		lru.SVR.SRFRegs = 2
		lru.Label = fmt.Sprintf("SVR%d-srf2", n)
		add(fmt.Sprintf("svr%d.srf2.lru", n), fmt.Sprintf("SVR%d, 2 SRF regs, LRU recycle", n), lru)

		dvr := SVRConfig(n)
		dvr.SVR.SRFRegs = 2
		dvr.SVR.Recycle = svr.RecycleNone
		dvr.Label = fmt.Sprintf("SVR%d-srf2-dvr", n)
		add(fmt.Sprintf("svr%d.srf2.dvr", n), fmt.Sprintf("SVR%d, 2 SRF regs, DVR policy", n), dvr)
	}

	// Waiting mode off (redundant transient work).
	for _, n := range []int{16, 64} {
		nw := SVRConfig(n)
		nw.SVR.WaitingMode = false
		nw.Label = fmt.Sprintf("SVR%d-nowait", n)
		add(fmt.Sprintf("svr%d.nowait", n), fmt.Sprintf("SVR%d without waiting mode", n), nw)
	}

	// SRF size sweep (paper: two speculative registers reach peak).
	for _, k := range []int{1, 2, 4, 8} {
		cfg := SVRConfig(16)
		cfg.SVR.SRFRegs = k
		cfg.Label = fmt.Sprintf("SVR16-k%d", k)
		add(fmt.Sprintf("svr16.srf%d", k), fmt.Sprintf("SVR16, %d SRF regs", k), cfg)
	}

	cfgs := []Config{MachineConfig(InO)}
	for _, v := range variants {
		cfgs = append(cfgs, v.cfg)
	}
	m := r.matrix(cfgs, specs, p.Params)
	base := m.Row("in-order")

	t := stats.NewTable("variant", "norm IPC (hmean)")
	for _, v := range variants {
		sp := hmeanSpeedup(base, m.Row(v.cfg.Label))
		t.AddRowF(v.label, sp)
		r.Values[v.key] = sp
	}

	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"paper: regcopy 3.21->3.16x; DVR recycling w/ 2 regs 3.2->1.9x (SVR16), 4.2->2.2x (SVR64);",
		"no waiting mode 1.14x (SVR16) / 0.56x (SVR64); 2 SRF regs reach peak with LRU")
	return r
}
