package main

import (
	"fmt"
	"time"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/cpu/inorder"
	"repro/internal/cpu/ooo"
	"repro/internal/emu"
	"repro/internal/imp"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/svr"
	"repro/internal/workloads"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// windowCost is what driving one workload's detailed window through
// each layer alone cost, with the operation counts of each drive.
type windowCost struct {
	Instrs, MemOps, Loads int64
	Bytes                 int64
	FFInstrs              int64
	Build, Record, Step   time.Duration
	Fill, ArchView        time.Duration
	Ino, OoO, IMP, SVR    time.Duration
	Access, Prefetch      time.Duration
	Fetch, Warm, FFWarm   time.Duration
}

// warmer feeds a fast-forward's event stream to a hierarchy and branch
// predictor, as functional warming does inside sim.
type warmer struct {
	h  *cache.Hierarchy
	bp *bpred.Predictor
}

func (w *warmer) WarmFetch(pc int)              { w.h.WarmFetchInstr(inorder.CodeBase + uint64(pc)*4) }
func (w *warmer) WarmLoad(pc int, addr uint64)  { w.h.WarmAccess(pc, addr, false) }
func (w *warmer) WarmStore(pc int, addr uint64) { w.h.WarmAccess(pc, addr, true) }
func (w *warmer) WarmBranch(pc int, taken bool) { w.bp.Predict(pc, taken) }

type memOp struct {
	pc    int
	addr  uint64
	write bool
	at    int64
}

// driveWindow drives one workload's window through every layer in turn,
// each alone, from the benchmark: the image build, the warmed
// fast-forward that reaches the window (paper-cell) or an equally long
// one (quick grids), the recording pass, bare emulation, SoA decode,
// ArchView advance, the four core organisations, and the hierarchy's
// Access / Prefetch / FetchInstr / Warm* entry points fed the window's
// own addresses.
func driveWindow(w workload, si int, sp *spans, parent int) (windowCost, error) {
	var c windowCost
	spec := w.specs[si]
	inoCfg, oooCfg := sim.MachineConfig(sim.InO), sim.MachineConfig(sim.OoO)
	impCfg, svrCfg := sim.MachineConfig(sim.IMP), sim.SVRConfig(16)

	var inst *workloads.Instance
	c.Build = sp.timed("workloads.Build", parent, func() { inst = spec.Build(w.p.Scale) })

	cpu := emu.New(inst.Prog, inst.Mem.Clone())
	ffN := w.window()
	if w.p.FastForward > 0 {
		ffN = w.p.FastForward
	}
	wm := &warmer{h: cache.NewHierarchy(inoCfg.Hier), bp: bpred.New(inoCfg.InO.BPredTableBits)}
	c.FFWarm = sp.timed("emu.FastForwardWarm", parent, func() { c.FFInstrs = int64(cpu.FastForwardWarm(ffN, wm)) })
	if w.p.FastForward == 0 {
		cpu = emu.New(inst.Prog, inst.Mem.Clone()) // the quick windows start at the image start
	}
	start, arch := cpu.Mem.Clone(), cpu.SaveArch()

	var rec *stream.Recording
	var err error
	c.Record = sp.timed("stream.Record", parent, func() { rec, err = stream.Record(cpu, w.window()) })
	if err != nil {
		return c, fmt.Errorf("recording %s: %w", spec.Name, err)
	}
	n := int64(rec.N)
	c.Instrs, c.Bytes = n, int64(rec.Bytes())

	stepCPU := emu.New(inst.Prog, start.Clone())
	stepCPU.LoadArch(arch)
	c.Step = sp.timed("emu.Step", parent, func() {
		var d emu.DynInstr
		for i := int64(0); i < n && stepCPU.Step(&d); i++ {
		}
	})

	// Decode as a cohort does, into one reused chunk buffer.
	src := stream.NewReplay(rec)
	c.Fill = sp.timed("stream.DecodedBatch.Fill", parent, func() {
		var b stream.DecodedBatch
		for b.Fill(src, 2048) > 0 {
		}
	})
	src.Recycle()
	// Keep a decoded copy of the window (untimed) for the drives below.
	var batches []*stream.DecodedBatch
	src = stream.NewReplay(rec)
	for {
		b := new(stream.DecodedBatch)
		if b.Fill(src, 2048) == 0 {
			break
		}
		batches = append(batches, b)
	}
	src.Recycle()
	view := stream.NewArchView(rec, start.Clone())
	c.ArchView = sp.timed("stream.ArchView.Advance", parent, func() {
		var d emu.DynInstr
		for _, b := range batches {
			for i := 0; i < b.N; i++ {
				b.Row(i, &d)
				view.Advance(&d)
			}
		}
	})

	c.Ino = driveCore(sp, parent, "inorder.Core.Run", rec, inoCfg.Hier, nil,
		func(h *cache.Hierarchy, _ *stream.ReplaySource, _ *mem.Memory) runner {
			return inorder.New(inoCfg.InO, h)
		})
	c.OoO = driveCore(sp, parent, "ooo.Core.Run", rec, oooCfg.Hier, nil,
		func(h *cache.Hierarchy, _ *stream.ReplaySource, _ *mem.Memory) runner {
			return ooo.New(oooCfg.OoO, h)
		})
	c.IMP = driveCore(sp, parent, "imp+inorder.Core.Run", rec, impCfg.Hier, start,
		func(h *cache.Hierarchy, _ *stream.ReplaySource, m *mem.Memory) runner {
			core := inorder.New(impCfg.InO, h)
			core.Companion = imp.New(impCfg.IMP, h, m)
			return core
		})
	c.SVR = driveCore(sp, parent, "svr16+inorder.Core.Run", rec, svrCfg.Hier, start,
		func(h *cache.Hierarchy, src *stream.ReplaySource, _ *mem.Memory) runner {
			core := inorder.New(svrCfg.InO, h)
			core.Companion = svr.New(svrCfg.SVR, h, src)
			return core
		})

	var ops []memOp
	var fetches []uint64
	var d emu.DynInstr
	for _, b := range batches {
		for i := 0; i < b.N; i++ {
			b.Row(i, &d)
			at := int64(d.Seq - rec.StartSeq)
			fetches = append(fetches, inorder.CodeBase+uint64(d.PC)*4)
			switch d.Instr.Kind() {
			case isa.KindLoad:
				ops = append(ops, memOp{d.PC, d.Addr, false, at})
				c.Loads++
			case isa.KindStore:
				ops = append(ops, memOp{d.PC, d.Addr, true, at})
			}
		}
	}
	c.MemOps = int64(len(ops))
	h := cache.NewHierarchy(inoCfg.Hier)
	c.Access = sp.timed("cache.Hierarchy.Access", parent, func() {
		for _, o := range ops {
			h.Access(o.pc, o.addr, o.write, o.at)
		}
	})
	h = cache.NewHierarchy(inoCfg.Hier)
	c.Prefetch = sp.timed("cache.Hierarchy.Prefetch", parent, func() {
		for _, o := range ops {
			if !o.write {
				h.Prefetch(o.addr, o.at, cache.OriginSVR)
			}
		}
	})
	h = cache.NewHierarchy(inoCfg.Hier)
	c.Fetch = sp.timed("cache.Hierarchy.FetchInstr", parent, func() {
		for i, a := range fetches {
			h.FetchInstr(a, int64(i))
		}
	})
	h = cache.NewHierarchy(inoCfg.Hier)
	c.Warm = sp.timed("cache.Hierarchy.Warm", parent, func() {
		k := 0
		for i, a := range fetches {
			h.WarmFetchInstr(a)
			if k < len(ops) && ops[k].at == int64(i) {
				h.WarmAccess(ops[k].pc, ops[k].addr, ops[k].write)
				k++
			}
		}
	})
	return c, nil
}

// runner is a core's stream entry point.
type runner interface {
	Run(src stream.InstrSource, maxInstr uint64) uint64
}

// driveCore runs one core organisation over the recorded window with a
// fresh hierarchy. Companions that read memory (IMP, SVR) get a private
// clone of the start image that the replay keeps in lockstep; pure cores
// (start nil) replay without one.
func driveCore(sp *spans, parent int, name string, rec *stream.Recording, hc cache.Config, start *mem.Memory,
	mk func(*cache.Hierarchy, *stream.ReplaySource, *mem.Memory) runner) time.Duration {
	var m *mem.Memory
	var src *stream.ReplaySource
	if start != nil {
		m = start.Clone()
		src = stream.NewReplayWithMem(rec, m)
	} else {
		src = stream.NewReplay(rec)
	}
	core := mk(cache.NewHierarchy(hc), src, m)
	d := sp.timed(name, parent, func() { core.Run(src, rec.N) })
	src.Recycle()
	return d
}

func (t *windowCost) add(c windowCost) {
	t.Instrs += c.Instrs
	t.MemOps += c.MemOps
	t.Loads += c.Loads
	t.Bytes += c.Bytes
	t.FFInstrs += c.FFInstrs
	t.Build += c.Build
	t.Record += c.Record
	t.Step += c.Step
	t.Fill += c.Fill
	t.ArchView += c.ArchView
	t.Ino += c.Ino
	t.OoO += c.OoO
	t.IMP += c.IMP
	t.SVR += c.SVR
	t.Access += c.Access
	t.Prefetch += c.Prefetch
	t.Fetch += c.Fetch
	t.Warm += c.Warm
	t.FFWarm += c.FFWarm
}

// layerMetrics joins the traced grid's deterministic counts with the
// window drives' timings into the per-layer metrics.
func layerMetrics(rep gridReport, costs []windowCost, terms []costTerm) map[string]metric {
	var t windowCost
	for _, c := range costs {
		t.add(c)
	}
	k := rep.Counts
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	perK := func(v int64, instrs uint64) float64 { return ratio(float64(v)*1000, float64(instrs)) }
	hit := func(c string) float64 {
		a := rep.Artifacts[c]
		return ratio(float64(a.Hits), float64(a.Hits+a.Misses))
	}
	var evictions, waited int64
	for _, a := range rep.Artifacts {
		evictions += a.Evictions
		waited += a.WaitedNS
	}

	put("grid.worker_busy_ratio", ratio(float64(rep.BusyNS), float64(rep.Workers)*float64(rep.WallNS)), "ratio")
	put("grid.work_units", float64(rep.Units), "count")
	put("sim.cohort_width_mean", ratio(float64(rep.Cells), float64(rep.Units)), "cells")
	put("sim.replay_share", ratio(float64(rep.Replayed), float64(rep.Cells)), "ratio")
	put("sim.allocs_per_instr", ratio(float64(rep.Mallocs), float64(rep.Instrs)), "allocs/instr")
	put("artifact.image_hit_ratio", hit("image"), "ratio")
	put("artifact.stream_hit_ratio", hit("stream"), "ratio")
	put("artifact.checkpoint_hit_ratio", hit("checkpoint"), "ratio")
	put("artifact.evictions", float64(evictions), "count")
	put("artifact.wait_s", float64(waited)/1e9, "s")
	put("workloads.build_s", t.Build.Seconds(), "s")
	put("emu.step_ns_per_instr", nsPer(t.Step, t.Instrs), "ns/instr")
	put("stream.record_ns_per_instr", nsPer(t.Record, t.Instrs), "ns/instr")
	put("emu.ffwarm_ns_per_instr", nsPer(t.FFWarm, t.FFInstrs), "ns/instr")
	put("cache.warm_ns_per_op", nsPer(t.Warm, t.Instrs+t.MemOps), "ns/op")
	put("emu.ff_instrs_per_instr", ratio(float64(k.FFInstrs), float64(k.Instrs)), "instr/instr")
	put("stream.bytes_per_instr", ratio(float64(t.Bytes), float64(t.Instrs)), "B/instr")
	put("stream.fill_ns_per_instr", nsPer(t.Fill, t.Instrs), "ns/instr")
	put("stream.archview_ns_per_instr", nsPer(t.ArchView, t.Instrs), "ns/instr")
	put("inorder.ns_per_instr", nsPer(t.Ino, t.Instrs), "ns/instr")
	put("ooo.ns_per_instr", nsPer(t.OoO, t.Instrs), "ns/instr")
	put("svr.ns_per_instr", nsPer(t.SVR-t.Ino, t.Instrs), "ns/instr")
	put("imp.ns_per_instr", nsPer(t.IMP-t.Ino, t.Instrs), "ns/instr")
	put("svr.rounds_per_kinstr", perK(k.Rounds, k.SVRInstrs), "1/kinstr")
	put("svr.svis_per_kinstr", perK(k.SVIs, k.SVRInstrs), "1/kinstr")
	put("svr.lanes_per_kinstr", perK(k.Lanes, k.SVRInstrs), "1/kinstr")
	put("svr.prefetches_per_kinstr", perK(k.PFIssued, k.SVRInstrs), "1/kinstr")
	put("svr.prefetch_useful_ratio", ratio(float64(k.PFUsed), float64(k.PFIssued)), "ratio")
	put("cache.access_ns_per_op", nsPer(t.Access, t.MemOps), "ns/op")
	put("cache.prefetch_ns_per_op", nsPer(t.Prefetch, t.Loads), "ns/op")
	put("cache.fetch_ns_per_op", nsPer(t.Fetch, t.Instrs), "ns/op")
	put("cache.l1d_miss_ratio", ratio(float64(k.L1DMiss), float64(k.L1DAcc)), "ratio")
	put("cache.l2_miss_ratio", ratio(float64(k.L2Miss), float64(k.L2Acc)), "ratio")
	put("cache.dtlb_miss_ratio", ratio(float64(k.DTLBMiss), float64(k.DTLBAcc)), "ratio")
	put("cache.ptw_walks_per_kinstr", perK(k.Walks, k.Instrs), "1/kinstr")
	put("dram.lines_per_kinstr", perK(k.DRAMLines, k.Instrs), "1/kinstr")
	put("layers.closure_ratio", closureRatio(terms, time.Duration(rep.CPUNS)), "ratio")
	return m
}

// closureTerms prices the timed grid's work with the drives' ns/op: per
// workload window, the image build, the recording (replayed windows),
// the shared warmed fast-forward (sampled regions), one SoA decode per
// cohort, and per cell its core organisation over every stepped
// instruction — less the per-instruction decode a cohort member skips,
// plus the ArchView advance of memory-reading members, or for a live
// cell the emulator step and the fast-forwards between its regions.
// SVR cells of every width are priced at the SVR16 drive.
func closureTerms(w workload, rep gridReport, costs []windowCost) []costTerm {
	var order []string
	acc := map[string]*costTerm{}
	add := func(name string, ops, nsPerOp float64) {
		t := acc[name]
		if t == nil {
			t = &costTerm{name: name}
			acc[name] = t
			order = append(order, name)
		}
		t.nsPerOp = ratio(t.ops*t.nsPerOp+ops*nsPerOp, t.ops+ops)
		t.ops += ops
	}
	ff := float64(w.p.FastForward)
	for si, c := range costs {
		n := float64(c.Instrs)
		per := func(d time.Duration) float64 { return nsPer(d, c.Instrs) }
		ffNS := nsPer(c.FFWarm, c.FFInstrs)
		add("workloads.Build", 1, float64(c.Build.Nanoseconds()))
		replayed, cohorts := false, 0.0
		for _, r := range rep.Runs {
			if r.Spec != si {
				continue
			}
			steps := n * float64(r.Regions)
			var name string
			var core float64
			memReader := false
			switch w.cfgs[r.Cfg].Core {
			case sim.InO:
				name, core = "inorder.Core.Run", per(c.Ino)
			case sim.OoO:
				name, core = "ooo.Core.Run", per(c.OoO)
			case sim.IMP:
				name, core, memReader = "imp+inorder.Core.Run", per(c.IMP), true
			case sim.SVR:
				name, core, memReader = "svr+inorder.Core.Run", per(c.SVR), true
			}
			switch {
			case r.Width > 1:
				replayed = true
				cohorts += 1 / float64(r.Width)
				add(name, steps, core-per(c.Fill))
				if memReader {
					add("stream.ArchView.Advance", steps, per(c.ArchView))
				}
			case r.Replayed:
				replayed = true
				add(name, steps, core)
			default:
				add(name, steps, core-per(c.Fill))
				add("emu.Step", steps, per(c.Step))
				if r.Regions > 1 {
					add("emu.FastForwardWarm", float64(r.Regions-1)*ff, ffNS)
				}
			}
		}
		if replayed {
			add("stream.Record", n, per(c.Record))
		}
		if cohorts > 0 {
			add("stream.DecodedBatch.Fill", cohorts*n, per(c.Fill))
		}
		if ff > 0 {
			add("emu.FastForwardWarm", ff, ffNS) // the shared checkpoint
		}
	}
	terms := make([]costTerm, len(order))
	for i, name := range order {
		terms[i] = *acc[name]
	}
	return terms
}
