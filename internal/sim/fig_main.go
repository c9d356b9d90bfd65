package sim

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/svr"
)

func init() {
	registerExperiment(Experiment{
		ID:    "fig1",
		Title: "Average speedup (hmean IPC) and normalized energy vs in-order baseline",
		Run:   runFig1,
	})
	registerExperiment(Experiment{
		ID:    "fig3",
		Title: "CPI stacks: in-order vs out-of-order (mem-dram share)",
		Run:   runFig3,
	})
	registerExperiment(Experiment{
		ID:    "fig11",
		Title: "Cycles-per-instruction per workload (lower is better)",
		Run:   runFig11,
	})
	registerExperiment(Experiment{
		ID:    "fig12",
		Title: "Whole-system energy per committed instruction (nJ, lower is better)",
		Run:   runFig12,
	})
	registerExperiment(Experiment{
		ID:    "table1",
		Title: "Differences between VR, DVR and SVR",
		Run:   runTable1,
	})
	registerExperiment(Experiment{
		ID:    "table2",
		Title: "SVR hardware overhead",
		Run:   runTable2,
	})
	registerExperiment(Experiment{
		ID:    "table3",
		Title: "Machine configurations",
		Run:   runTable3,
	})
}

func runFig1(run MatrixRunner, p ExpParams) *Report {
	r := newReport(run, "fig1", "normalized performance and energy")
	specs := evalSet(p)
	m := r.matrix(standardConfigs(), specs, p.Params)
	base := m.Row("in-order")

	t := stats.NewTable("config", "norm-IPC (hmean)", "norm-energy (mean)")
	perf := stats.NewBarChart("normalized performance (hmean IPC)", "x")
	enC := stats.NewBarChart("normalized energy (lower is better)", "x")
	for _, cfg := range standardConfigs() {
		sp := hmeanSpeedup(base, m.Row(cfg.Label))
		en := meanNormEnergy(base, m.Row(cfg.Label))
		t.AddRowF(cfg.Label, sp, en)
		perf.Add(cfg.Label, sp)
		enC.Add(cfg.Label, en)
		r.Values["speedup."+cfg.Label] = sp
		r.Values["energy."+cfg.Label] = en
	}
	r.Tables = append(r.Tables, t)
	r.Charts = append(r.Charts, perf, enC)
	r.Notes = append(r.Notes,
		"paper: SVR16 3.2x / OoO ~2.4x / IMP ~2.3x over in-order; SVR most energy-efficient")
	return r
}

func runFig3(run MatrixRunner, p ExpParams) *Report {
	r := newReport(run, "fig3", "CPI stacks in-order vs OoO")
	specs := evalSet(p)
	m := r.matrix([]Config{MachineConfig(InO), MachineConfig(OoO)}, specs, p.Params)

	for _, label := range []string{"in-order", "out-of-order"} {
		dram := map[string]float64{}
		other := map[string]float64{}
		for name, res := range m.Row(label) {
			dram[name] = res.Stack.Component(stats.StallMemDRAM)
			other[name] = res.CPI - dram[name]
		}
		gd, go_ := groupMeans(dram), groupMeans(other)
		t := stats.NewTable("group ("+label+")", "mem-dram CPI", "other CPI", "total CPI")
		var avgD, avgO float64
		for _, g := range groupOrder {
			if _, ok := gd[g]; !ok {
				continue
			}
			t.AddRowF(g, gd[g], go_[g], gd[g]+go_[g])
			avgD += gd[g]
			avgO += go_[g]
		}
		n := float64(len(gd))
		t.AddRowF("Avg.", avgD/n, avgO/n, (avgD+avgO)/n)
		r.Values["dram."+label] = avgD / n
		r.Values["total."+label] = (avgD + avgO) / n
		r.Tables = append(r.Tables, t)
	}
	r.Notes = append(r.Notes,
		"paper: in-order stalls ~8.9 CPI on DRAM vs ~3.6 for OoO (~2.5x)")
	return r
}

func runFig11(run MatrixRunner, p ExpParams) *Report {
	r := newReport(run, "fig11", "CPI per workload")
	specs := evalSet(p)
	cfgs := standardConfigs()
	m := r.matrix(cfgs, specs, p.Params)

	header := []string{"workload"}
	for _, c := range cfgs {
		header = append(header, c.Label)
	}
	t := stats.NewTable(header...)
	for _, spec := range specs {
		cells := make([]float64, 0, len(cfgs))
		for _, c := range cfgs {
			cpi := m.Row(c.Label)[spec.Name].CPI
			cells = append(cells, cpi)
			r.Values[fmt.Sprintf("cpi.%s.%s", c.Label, spec.Name)] = cpi
		}
		t.AddRowF(spec.Name, cells...)
	}
	// Average row.
	avg := make([]float64, len(cfgs))
	for i, c := range cfgs {
		sum := 0.0
		for _, spec := range specs {
			sum += m.Row(c.Label)[spec.Name].CPI
		}
		avg[i] = sum / float64(len(specs))
		r.Values["cpi."+c.Label+".avg"] = avg[i]
	}
	t.AddRowF("Avg.", avg...)
	r.Tables = append(r.Tables, t)
	return r
}

func runFig12(run MatrixRunner, p ExpParams) *Report {
	r := newReport(run, "fig12", "energy per instruction")
	specs := evalSet(p)
	cfgs := standardConfigs()
	m := r.matrix(cfgs, specs, p.Params)

	header := []string{"workload"}
	for _, c := range cfgs {
		header = append(header, c.Label)
	}
	t := stats.NewTable(header...)
	for _, spec := range specs {
		cells := make([]float64, 0, len(cfgs))
		for _, c := range cfgs {
			nj := m.Row(c.Label)[spec.Name].Energy.NJPerInstr
			cells = append(cells, nj)
			r.Values[fmt.Sprintf("energy.%s.%s", c.Label, spec.Name)] = nj
		}
		t.AddRowF(spec.Name, cells...)
	}
	avg := make([]float64, len(cfgs))
	for i, c := range cfgs {
		sum := 0.0
		for _, spec := range specs {
			sum += m.Row(c.Label)[spec.Name].Energy.NJPerInstr
		}
		avg[i] = sum / float64(len(specs))
		r.Values["energy."+c.Label+".avg"] = avg[i]
	}
	t.AddRowF("Avg.", avg...)
	r.Tables = append(r.Tables, t)
	return r
}

func runTable1(run MatrixRunner, p ExpParams) *Report {
	r := newReport(run, "table1", "guiding principles of VR, DVR and SVR")
	t := stats.NewTable("property", "VR", "DVR", "SVR (this repo)")
	rows := [][4]string{
		{"Based on existing vector ISAs", "Y", "Y", "N"},
		{"Relies on existing vector registers", "Y", "Y", "N"},
		{"Optimizes vector-register usage", "N", "N", "Y (LRU-recycled SRF)"},
		{"Stalls the main thread", "Y", "N", "N"},
		{"Runahead synchronous with main thread", "N", "N", "Y (piggyback)"},
		{"Mitigates incorrect prefetches", "N", "Y", "Y (monitor + loop bounds)"},
		{"Needs a discovery pass", "N", "Y", "N (EWMA/LBD/CV tournament)"},
	}
	for _, row := range rows {
		t.AddRow(row[0], row[1], row[2], row[3])
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"qualitative (paper Table I); the SVR column names the implementing mechanism here")
	return r
}

func runTable2(run MatrixRunner, p ExpParams) *Report {
	r := newReport(run, "table2", "hardware overhead")
	t := stats.NewTable("config", "bits", "KiB")
	for _, n := range []int{8, 16, 32, 64, 128} {
		opt := svr.DefaultOptions()
		opt.VectorLen = n
		bits := svr.OverheadBits(opt)
		kib := svr.OverheadKiB(opt)
		t.AddRow(fmt.Sprintf("SVR-%d", n), fmt.Sprintf("%d", bits), fmt.Sprintf("%.2f", kib))
		r.Values[fmt.Sprintf("kib.%d", n)] = kib
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes, "paper: 2.17 KiB at N=16, ~9 KiB at N=128", "",
		svr.OverheadTable(svr.DefaultOptions()))
	return r
}

func runTable3(run MatrixRunner, p ExpParams) *Report {
	r := newReport(run, "table3", "machine configurations")
	cfg := MachineConfig(InO)
	t := stats.NewTable("parameter", "in-order / SVR", "out-of-order")
	ooo := MachineConfig(OoO)
	t.AddRow("width", fmt.Sprintf("%d", cfg.InO.Width), fmt.Sprintf("%d", ooo.OoO.Width))
	t.AddRow("scoreboard / ROB", fmt.Sprintf("%d", cfg.InO.Scoreboard), fmt.Sprintf("%d", ooo.OoO.ROB))
	t.AddRow("LSQ", "-", fmt.Sprintf("%d", ooo.OoO.LSQ))
	t.AddRow("mispredict penalty", fmt.Sprintf("%d", cfg.InO.MispredictPenalty), fmt.Sprintf("%d", ooo.OoO.MispredictPenalty))
	t.AddRow("L1-D", fmt.Sprintf("%d KiB, %d-way, %d MSHRs", cfg.Hier.L1Size>>10, cfg.Hier.L1Ways, cfg.Hier.L1MSHRs), "same")
	t.AddRow("L2", fmt.Sprintf("%d KiB, %d-way", cfg.Hier.L2Size>>10, cfg.Hier.L2Ways), "same")
	t.AddRow("D-TLB / S-TLB", fmt.Sprintf("%d / %d entries", cfg.Hier.DTLBEntries, cfg.Hier.STLBEntries), "same")
	t.AddRow("page-table walkers", fmt.Sprintf("%d", cfg.Hier.NumPTWs), "same")
	t.AddRow("DRAM", fmt.Sprintf("%.0f GiB/s, %.0f ns", cfg.Hier.DRAM.BandwidthGBps, cfg.Hier.DRAM.LatencyNS), "same")
	r.Tables = append(r.Tables, t)
	return r
}
