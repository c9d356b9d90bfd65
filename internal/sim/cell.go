package sim

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/artifact"
	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/stream"
	"repro/internal/workloads"
)

// This file is the cell-execution core of the scheduler: one grid cell
// (config × workload × window) resolved through its engine's artifact
// store. Every caller — the in-process matrix pool, the grid service's
// workers, a test — goes through ExecuteCohort (cohort.go), so
// single-shot and served modes cannot drift: there is exactly one code
// path from a cell request to a Result, and one set of caches per
// engine behind it.

// cellKey identifies one simulation by content: the machine configuration
// (minus its display label), the workload name, and the window.
type cellKey [sha256.Size]byte

// hashCell derives the cache key. Config and Params are plain-data
// structs, so their canonical JSON encoding is a stable content hash; the
// label is display-only and must not split otherwise-identical cells
// (sweeps relabel the default configuration all the time).
func hashCell(cfg Config, workload string, p Params) cellKey {
	cfg.Label = ""
	blob, err := json.Marshal(struct {
		Cfg      Config
		Workload string
		P        Params
	}{cfg, workload, p})
	if err != nil {
		panic(fmt.Sprintf("sim: cannot hash cell: %v", err))
	}
	return sha256.Sum256(blob)
}

// CellRequest names one schedulable cell.
type CellRequest struct {
	Cfg  Config
	Spec workloads.Spec
	P    Params
}

// CellOutcome describes how a cell request was satisfied.
type CellOutcome struct {
	// Cached: the result was resident in the artifact store.
	Cached bool
	// Shared: the result was joined from another caller's in-flight
	// execution of the identical cell (cross-job dedup).
	Shared bool
	// Replayed: this cell simulated by consuming a recorded instruction
	// stream instead of a live emulator.
	Replayed bool
	// CkptFromStore / StreamFromStore: the cell consumed a checkpoint /
	// recording it did not produce itself — warm state shared with an
	// earlier or concurrent job.
	CkptFromStore   bool
	StreamFromStore bool
	// Wall is the caller's wall time on the cell, however it was served.
	Wall time.Duration
	// Phases decomposes Wall by phase: build, fast-forward, record,
	// decode, timing, store-wait. Shared productions (checkpoints,
	// recordings) are attributed to the cell that produced them; cohort
	// members carry an even split of their cohort's shared cost.
	Phases PhaseTimes
}

// FromStore reports whether the cell's result came out of the unified
// store rather than a simulation run by this caller.
func (o CellOutcome) FromStore() bool { return o.Cached || o.Shared }

// simulateRegionCell runs a multi-region cell. A recording cannot span
// the fast-forward gaps between its detailed regions, so the cell steps
// a live emulator through the region schedule from its window start
// (startMachine). Phase attribution: the timing window is measured
// around SimulateFrom, shared productions attribute inside the cached
// helpers, and whatever wall time remains is banked as build — so the
// per-cell sum tracks the cell's measured wall.
func (e *Engine) simulateRegionCell(req CellRequest, tr *Tracker, out *CellOutcome, pc *phaseCtx) Result {
	t0 := time.Now()
	base := pc.ph.Total()
	tr.phase(+1, 0)
	m := e.startMachine(req, nil, out, tr, pc)
	tr.phase(-1, +1)
	tt := time.Now()
	// Without a fast-forward SimulateFrom's skipped first fast-forward
	// is empty anyway, so it drives both starts.
	res := SimulateFrom(m, req.P)
	pc.add(PhaseTiming, time.Since(tt))
	tr.phase(0, -1)
	if rest := time.Since(t0) - (pc.ph.Total() - base); rest > 0 {
		pc.add(PhaseBuild, rest)
	}
	return res
}

// startMachine is how every grid cell's machine is built: positioned at
// its window start, over the built image or restored from the shared
// post-fast-forward checkpoint (windowStart). rec is the recording a
// cohort member steps, nil for a live multi-region cell. A machine that
// touches memory gets a private copy-on-write clone: a live cell's
// emulator writes it, an IMP or SVR member reads it through its arch
// view. In-order and out-of-order cohort members share the frozen image,
// which nothing in them reads or writes.
func (e *Engine) startMachine(req CellRequest, rec *stream.Recording, out *CellOutcome, tr *Tracker, pc *phaseCtx) Machine {
	inst, ck, co := e.windowStart(req.Spec, req.Cfg, req.P, tr, pc)
	out.CkptFromStore = co.FromStore()
	view := rec != nil && req.Cfg.Core.needsArchView()
	if rec == nil || view {
		inst = cloneInstance(inst)
	}
	m, err := NewMachine(req.Cfg, inst)
	if err != nil {
		panic(err)
	}
	if ck != nil {
		m.Restore(ck)
	}
	if view {
		m.(*inOrderMachine).attachArchView(stream.NewArchView(rec, inst.Mem))
	}
	return m
}

// windowStart resolves the frozen image a window starts from: with a
// fast-forward, the shared checkpoint's instance (ck restores the
// architectural and warmed state over it), else the built image. The
// outcome is the checkpoint lookup's, zero without one. Callers clone
// the image before anything writes it.
func (e *Engine) windowStart(spec workloads.Spec, cfg Config, p Params, tr *Tracker, pc *phaseCtx) (*workloads.Instance, *Checkpoint, artifact.Outcome) {
	if p.FastForward == 0 {
		return e.cachedBuild(spec, p.Scale, pc), nil, artifact.Outcome{}
	}
	ck, co := e.cachedCheckpoint(spec, cfg, p, tr, pc)
	return ck.inst, ck, co
}

// cachedBuild returns the memoized image for (spec, sc), building it at
// most once across concurrent callers. Copy-on-write Clone makes
// retention safe: cells clone the image and never write the master, so a
// stored entry stays pristine.
func (e *Engine) cachedBuild(spec workloads.Spec, sc workloads.Scale, pc *phaseCtx) *workloads.Instance {
	k := imageKey(spec.Name, sc)
	t0 := time.Now()
	v, oc := e.store.GetOrProduce(k, func() (any, int64) {
		inst := spec.Build(sc)
		return inst, instanceBytes(inst)
	})
	pc.artifact(k, oc, time.Since(t0))
	return v.(*workloads.Instance)
}

// cloneInstance copies the memory image so a run (which mutates memory
// through stores) cannot contaminate the shared master build.
func cloneInstance(master *workloads.Instance) *workloads.Instance {
	return &workloads.Instance{
		Name: master.Name, Prog: master.Prog,
		Mem: master.Mem.Clone(), Check: master.Check,
	}
}

// warmKey hashes the configuration state functional warming actually
// depends on: cache/TLB/prefetcher geometry and branch-predictor table
// size. Latencies, MSHR count, walker count and the DRAM model never
// touch warmed tags, so sweeps over them (MSHR/bandwidth sensitivity)
// share one warmed checkpoint per workload.
func warmKey(cfg Config) string {
	hier := cfg.Hier
	hier.L1Latency, hier.L2Latency, hier.STLBLatency, hier.WalkLatency = 0, 0, 0, 0
	hier.L1MSHRs, hier.NumPTWs = 0, 0
	hier.DRAM = dram.Config{}
	bits := cfg.InO.BPredTableBits
	if cfg.Core == OoO {
		bits = cfg.OoO.BPredTableBits
	}
	blob, err := json.Marshal(struct {
		Hier      cache.Config
		BPredBits uint
	}{hier, bits})
	if err != nil {
		panic(fmt.Sprintf("sim: cannot hash warm geometry: %v", err))
	}
	sum := sha256.Sum256(blob)
	return fmt.Sprintf("%x", sum[:8])
}

// cachedCheckpoint returns the shared post-fast-forward checkpoint for
// (workload, params, warm geometry), producing it at most once across
// concurrent callers: build (or fetch) the raw image, fast-forward a
// throwaway machine, capture. The outcome reports whether this caller
// got it from the store (hit or joined flight) rather than producing it.
func (e *Engine) cachedCheckpoint(spec workloads.Spec, cfg Config, p Params, tr *Tracker, pc *phaseCtx) (*Checkpoint, artifact.Outcome) {
	warm := ""
	if p.Warm {
		warm = warmKey(cfg)
	}
	k := checkpointKey(spec.Name, p.Scale, p.FastForward, warm)
	callStart := time.Now()
	v, oc := e.store.GetOrProduce(k, func() (any, int64) {
		tr.ckptBegin()
		t0 := time.Now()
		m, err := NewMachine(cfg, cloneInstance(e.cachedBuild(spec, p.Scale, pc)))
		if err != nil {
			panic(err)
		}
		m.FastForward(p.FastForward, p.Warm)
		ck := m.Checkpoint()
		d := time.Since(t0)
		tr.ckptEnd(d)
		pc.add(PhaseFastForward, d)
		return ck, ck.Bytes()
	})
	if oc.Waited {
		pc.add(PhaseStoreWait, time.Since(callStart))
	}
	pc.artifact(k, oc, time.Since(callStart))
	return v.(*Checkpoint), oc
}
