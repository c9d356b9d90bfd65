package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/cache"
	"repro/internal/grid"
	"repro/internal/sim"
)

// gridReport is what one timed-grid process reports to the parent process.
type gridReport struct {
	EntryNS    int64                 `json:"entry_ns"` // the process's main entry, unix ns
	WallNS     int64                 `json:"wall_ns"`  // RunMatrix wall
	CPUNS      int64                 `json:"cpu_ns"`   // process CPU time during RunMatrix
	Instrs     uint64                `json:"instrs"`   // Σ Result.Instrs
	Cells      int                   `json:"cells"`
	Failed     []string              `json:"failed"`  // cells that panicked or simulated nothing
	UnitMS     []float64             `json:"unit_ms"` // per cell: wall of the work unit that produced it
	Units      int                   `json:"units"`
	BusyNS     int64                 `json:"busy_ns"` // Σ work-unit wall
	Workers    int                   `json:"workers"`
	Replayed   int                   `json:"replayed"`
	Mallocs    uint64                `json:"mallocs"`
	Artifacts  map[string]classDelta `json:"artifacts"`
	PeakRSSMiB float64               `json:"peak_rss_mib"` // VmHWM when the timed grid ends
	CellHashes []string              `json:"cell_hashes"`  // per cell, workload-major order
	Digest     string                `json:"digest"`
	Checked    []string              `json:"checked"`    // cells re-simulated by the live oracle
	Mismatches []string              `json:"mismatches"` // of those, the ones that differ
	Counts     layerCounts           `json:"counts"`
	Runs       []cellRun             `json:"runs"`
}

// classDelta is one artifact class's counter change across the timed grid.
type classDelta struct {
	Hits, Misses, Evictions, WaitedNS int64
}

// layerCounts are deterministic work counts summed over the grid's
// Results: they repeat exactly for a given seed and explain the ns
// figures of the traced run.
type layerCounts struct {
	Instrs    uint64 `json:"instrs"`
	SVRInstrs uint64 `json:"svr_instrs"`
	Rounds    int64  `json:"rounds"`
	SVIs      int64  `json:"svis"`
	Lanes     int64  `json:"lanes"`
	PFIssued  int64  `json:"pf_issued"`
	PFUsed    int64  `json:"pf_used"`
	L1DAcc    int64  `json:"l1d_acc"`
	L1DMiss   int64  `json:"l1d_miss"`
	L2Acc     int64  `json:"l2_acc"`
	L2Miss    int64  `json:"l2_miss"`
	DTLBAcc   int64  `json:"dtlb_acc"`
	DTLBMiss  int64  `json:"dtlb_miss"`
	Walks     int64  `json:"walks"`
	DRAMLines int64  `json:"dram_lines"`
	FFInstrs  uint64 `json:"ff_instrs"`
}

func (c *layerCounts) add(cfg sim.Config, r sim.Result) {
	c.Instrs += r.Instrs
	if cfg.Core == sim.SVR {
		c.SVRInstrs += r.Instrs
		c.Rounds += r.SVRStats.Rounds
		c.SVIs += r.SVRStats.SVIs
		c.Lanes += r.SVRStats.Scalars
		c.PFIssued += r.PFStats[cache.OriginSVR].Issued
		c.PFUsed += r.PFStats[cache.OriginSVR].Used
	}
	m := r.Metrics.Counters
	c.L1DAcc += m["l1d.accesses"]
	c.L1DMiss += m["l1d.misses"]
	c.L2Acc += m["l2.accesses"]
	c.L2Miss += m["l2.misses"]
	c.DTLBAcc += m["dtlb.accesses"]
	c.DTLBMiss += m["dtlb.misses"]
	c.Walks += m["ptw.walks"]
	c.DRAMLines += m["dram.lines"]
	if r.Regions != nil {
		c.FFInstrs += uint64(r.Regions.Simulated) * r.Regions.FastForward
	}
}

// cellRun is how one cell was produced, for the closure sum.
type cellRun struct {
	Spec, Cfg int  // indexes into the workload's specs and cfgs
	Width     int  // members of the work unit that produced it
	Replayed  bool // fed by a recorded stream
	Regions   int  // detailed regions simulated (1 for a single window)
}

// executor wraps sim.ExecuteCohort as the scheduler's ExecuteGroup: it
// times every work unit, turns a panicking unit into failed cells, and
// (traced) records one span per unit under the RunMatrix span.
type executor struct {
	sp   *spans
	root int

	mu     sync.Mutex
	tracks []bool // busy display tracks, one per concurrently running unit
	walls  map[string]time.Duration
	widths map[string]int
	failed map[string]bool
	units  int
	busy   time.Duration
}

func newExecutor(sp *spans) *executor {
	return &executor{sp: sp, walls: map[string]time.Duration{},
		widths: map[string]int{}, failed: map[string]bool{}}
}

func (e *executor) track() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, busy := range e.tracks {
		if !busy {
			e.tracks[i] = true
			return i + 1
		}
	}
	e.tracks = append(e.tracks, true)
	return len(e.tracks)
}

func (e *executor) execute(reqs []sim.CellRequest, tr *sim.Tracker) (results []sim.Result, outs []sim.CellOutcome) {
	names := make([]string, len(reqs))
	for i, r := range reqs {
		names[i] = r.Cfg.Label + "/" + r.Spec.Name
	}
	tid := e.track()
	var id int
	if e.sp != nil {
		id = e.sp.begin("sim.ExecuteCohort", e.root, tid, map[string]any{
			"width": len(reqs), "workload": reqs[0].Spec.Name, "cells": strings.Join(names, " ")})
	}
	t0 := time.Now()
	defer func() {
		wall := time.Since(t0)
		e.sp.end(id)
		// A panic is reported as failed cells, not a crashed benchmark:
		// the remaining units still run and the run says what broke.
		p := recover()
		if p != nil {
			fmt.Fprintf(os.Stderr, "perfbench: work unit [%s] panicked: %v\n", strings.Join(names, " "), p)
			results, outs = make([]sim.Result, len(reqs)), make([]sim.CellOutcome, len(reqs))
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		e.tracks[tid-1] = false
		e.units++
		e.busy += wall
		for _, n := range names {
			e.walls[n] = wall
			e.widths[n] = len(reqs)
			if p != nil {
				e.failed[n] = true
			}
		}
	}()
	return sim.ExecuteCohort(reqs, tr)
}

// runGrid runs the workload's grid once, cold, through the public grid
// scheduler, and (check) re-simulates a sample of its cells with the live
// oracle afterwards, untimed.
func runGrid(w workload, seed int64, sp *spans, check bool) gridReport {
	workers := runtime.GOMAXPROCS(0)
	ex := newExecutor(sp)
	ex.root = sp.begin("grid.RunMatrix", 0, 0, map[string]any{"workload": w.name, "seed": seed})

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	art0 := sim.Artifacts().Stats()
	cpu0 := cpuTime()
	t0 := time.Now()
	sched := grid.New(grid.Options{Workers: workers, ExecuteGroup: ex.execute})
	rs := sched.RunMatrix(w.cfgs, w.specs, w.p)
	wall := time.Since(t0)
	cpu := cpuTime() - cpu0
	sched.Shutdown()
	sp.end(ex.root)
	art1 := sim.Artifacts().Stats()
	runtime.ReadMemStats(&ms1)

	rep := gridReport{
		WallNS: wall.Nanoseconds(), CPUNS: cpu.Nanoseconds(), Workers: workers,
		Units: ex.units, BusyNS: ex.busy.Nanoseconds(),
		Mallocs:    ms1.Mallocs - ms0.Mallocs,
		Artifacts:  map[string]classDelta{},
		PeakRSSMiB: peakRSSMiB(),
	}
	for _, c := range artifact.Classes() {
		a, b := art0[c], art1[c]
		rep.Artifacts[string(c)] = classDelta{Hits: b.Hits - a.Hits, Misses: b.Misses - a.Misses,
			Evictions: b.Evictions - a.Evictions, WaitedNS: b.WaitedNanos - a.WaitedNanos}
	}
	stats := map[string]sim.CellStat{}
	for _, st := range rs.Cells {
		stats[st.Label+"/"+st.Workload] = st
	}
	var results []sim.Result // workload-major, as w.cells()
	all := sha256.New()
	for _, c := range w.cells() {
		cfg, name := w.cfgs[c.cfg], w.cellName(c)
		res, ok := rs.Get(cfg.Label, w.specs[c.spec].Name)
		results = append(results, res)
		rep.Cells++
		if !ok || ex.failed[name] || res.Instrs == 0 {
			rep.Failed = append(rep.Failed, name)
		}
		rep.Instrs += res.Instrs
		rep.UnitMS = append(rep.UnitMS, float64(ex.walls[name].Nanoseconds())/1e6)
		rep.Counts.add(cfg, res)
		h := resultHash(res)
		rep.CellHashes = append(rep.CellHashes, h)
		all.Write([]byte(h))
		run := cellRun{Spec: c.spec, Cfg: c.cfg, Width: ex.widths[name], Replayed: stats[name].Replayed, Regions: 1}
		if res.Regions != nil {
			run.Regions = res.Regions.Simulated
		}
		if run.Replayed {
			rep.Replayed++
		}
		rep.Runs = append(rep.Runs, run)
	}
	rep.Digest = hex.EncodeToString(all.Sum(nil))[:16]
	if check {
		// The check is untimed: give it every CPU.
		prev := runtime.GOMAXPROCS(runtime.NumCPU())
		rep.Checked, rep.Mismatches = checkCells(w, seed, results, runtime.NumCPU())
		runtime.GOMAXPROCS(prev)
	}
	return rep
}

// resultJSON is the canonical encoding two Results are compared by:
// JSON round-trips float64 exactly, so equal bytes mean equal bits.
func resultJSON(r sim.Result) []byte {
	blob, err := json.Marshal(r)
	if err != nil {
		return []byte("unencodable: " + err.Error())
	}
	return blob
}

func resultHash(r sim.Result) string {
	sum := sha256.Sum256(resultJSON(r))
	return hex.EncodeToString(sum[:8])
}

// checkSample picks, from the seed, one cell for every (workload group,
// core kind) pair the grid contains, so each run checks every kind on
// every group while different seeds check different kernels and widths.
func checkSample(w workload, seed int64) []cellRef {
	groups := map[string][]int{}
	for i, s := range w.specs {
		groups[s.Group] = append(groups[s.Group], i)
	}
	kinds := map[sim.CoreKind][]int{}
	for i, c := range w.cfgs {
		kinds[c.Core] = append(kinds[c.Core], i)
	}
	var gnames []string
	for g := range groups {
		gnames = append(gnames, g)
	}
	sort.Strings(gnames)
	var out []cellRef
	for _, g := range gnames {
		for k := sim.InO; k <= sim.SVR; k++ {
			if len(kinds[k]) == 0 {
				continue
			}
			pick := func(what string, n int) int {
				h := fnv.New64a()
				fmt.Fprintf(h, "%d|%s|%d|%s", seed, g, k, what)
				return int(h.Sum64() % uint64(n))
			}
			out = append(out, cellRef{
				spec: groups[g][pick("spec", len(groups[g]))],
				cfg:  kinds[k][pick("cfg", len(kinds[k]))],
			})
		}
	}
	return out
}

// checkCells re-simulates the sample with sim.Run — a fresh build and the
// live emulator, none of the grid's stores, replays or cohorts — and
// compares each Result with the grid's bit for bit.
func checkCells(w workload, seed int64, results []sim.Result, workers int) (checked, mismatched []string) {
	sample := checkSample(w, seed)
	ok := make([]bool, len(sample))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, c := range sample {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, c cellRef) {
			defer wg.Done()
			defer func() { <-sem }()
			defer func() {
				if p := recover(); p != nil {
					fmt.Fprintf(os.Stderr, "perfbench: oracle run of %s panicked: %v\n", w.cellName(c), p)
				}
			}()
			live := sim.Run(w.specs[c.spec], w.cfgs[c.cfg], w.p)
			ok[i] = string(resultJSON(live)) == string(resultJSON(results[c.spec*len(w.cfgs)+c.cfg]))
		}(i, c)
	}
	wg.Wait()
	for i, c := range sample {
		checked = append(checked, w.cellName(c))
		if !ok[i] {
			mismatched = append(mismatched, w.cellName(c))
		}
	}
	return checked, mismatched
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
