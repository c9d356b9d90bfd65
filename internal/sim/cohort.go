package sim

import (
	"time"

	"repro/internal/artifact"
	"repro/internal/stream"
)

// Timing cohorts: the one execution path of a single-window cell. Every
// cell whose window is one warmup+measure stretch (Params.Regions <= 1)
// is recorded once per workload window (cachedRecording) and stepped as
// a member of a cohort: sibling cells of the same window — any core
// kind, up to MaxCohortWidth of them — consume shared decoded SoA chunks
// in lockstep, one chunk at a time, so the batch plus the members' hot
// state stay cache-resident. A lone cell is a cohort of width one.
// Members whose companion reads architectural state (IMP, SVR) own a
// private stream.ArchView advanced row-by-row ahead of issue, so the
// shared batch stays immutable. Results are bit-identical to the live
// emulator (sim.Run, the test oracle): the batch columns are filled by
// ReplaySource.Next itself and each member's per-instruction issue
// order is unchanged.
//
// Multi-region cells are the exception: a recording cannot span the
// fast-forward gaps between their detailed regions, so they stay
// singleton groups that step a live emulator (simulateRegionCell).

// MaxCohortWidth caps how many cells one cohort steps in lockstep: past
// this, the members' aggregate hot state (caches, TLBs, predictors)
// stops fitting beside the shared batch and the locality win inverts.
const MaxCohortWidth = 16

// cohortChunkRows is how many decoded records one SoA chunk holds
// (~130 KiB of columns): small enough to stay cache-resident under the
// members' hot state, large enough to amortize the per-chunk store
// lookup. A variable so the boundary-straddling fuzz test can shrink it.
var cohortChunkRows = 2048

// singleWindow reports whether a cell's window is one warmup+measure
// stretch — sampled or not, from the image start or from a shared
// checkpoint — and so is served by one recording as a cohort member.
func singleWindow(p Params) bool { return p.Regions <= 1 }

// PlanCohorts groups the given cell indices (nil means all of cells)
// into schedulable units: runs of single-window siblings — same
// workload, identical window — become one group of up to
// MaxCohortWidth; multi-region cells stay groups of one. Grouping only
// joins adjacent cells of the workload-major cell order, so scheduling
// order and peak-memory behavior match the ungrouped plan.
func PlanCohorts(cells []CellRequest, idx []int) [][]int {
	if idx == nil {
		idx = make([]int, len(cells))
		for i := range idx {
			idx[i] = i
		}
	}
	groups := make([][]int, 0, len(idx))
	var cur []int
	flush := func() {
		if len(cur) > 0 {
			groups = append(groups, cur)
			cur = nil
		}
	}
	for _, i := range idx {
		c := cells[i]
		if !singleWindow(c.P) {
			flush()
			groups = append(groups, []int{i})
			continue
		}
		if len(cur) > 0 {
			prev := cells[cur[0]]
			if prev.Spec.Name != c.Spec.Name || prev.P != c.P || len(cur) >= MaxCohortWidth {
				flush()
			}
		}
		cur = append(cur, i)
	}
	flush()
	return groups
}

// ExecuteCohort is how every grid cell executes. It resolves one
// PlanCohorts group — sibling cells of one window, or a lone
// multi-region cell — as a unit. Each member resolves through the
// artifact store: a resident result is a hit, an identical in-flight
// cell is joined, and the members this caller must produce are
// simulated together (runCohort), composing the shared image /
// checkpoint / recording artifacts, and memoized. tr names the engine
// whose store and observer serve the cells and feeds its live status
// surfaces; a nil tr drops the accounting and runs on the default
// engine. Results are bit-identical however the cell is served.
func ExecuteCohort(reqs []CellRequest, tr *Tracker) ([]Result, []CellOutcome) {
	e := defaultEngine
	if tr != nil {
		e = tr.eng
	}
	n := len(reqs)
	results := make([]Result, n)
	outs := make([]CellOutcome, n)
	start := time.Now()

	// Split-phase store resolution: residents are done, claims are ours
	// to produce, joins are other workers' in-flight cells we pick up
	// after our own lockstep run (waiting first could deadlock when two
	// members share one content key — relabeled identical configs).
	type member struct {
		idx int
		t   *artifact.Ticket
	}
	var claims, joins []member
	for i, req := range reqs {
		k := resultKey(req.Cfg, req.Spec.Name, req.P)
		v, oc, t := e.store.Begin(k)
		switch {
		case t == nil:
			results[i] = v.(Result)
			outs[i].Cached = oc.Hit
			outs[i].Wall = time.Since(start)
			e.phaseCtx(req.Cfg.Label, req.Spec.Name, &outs[i].Phases).artifact(k, oc, outs[i].Wall)
		case !t.Owner():
			outs[i].Shared = true
			joins = append(joins, member{i, t})
		default:
			claims = append(claims, member{i, t})
		}
	}

	if len(claims) > 0 {
		idxs := make([]int, len(claims))
		for k, m := range claims {
			idxs[k] = m.idx
		}
		runStart := time.Now()
		if singleWindow(reqs[idxs[0]].P) {
			e.runCohort(reqs, idxs, results, outs, tr)
		} else {
			for _, i := range idxs {
				req := reqs[i]
				pc := e.phaseCtx(req.Cfg.Label, req.Spec.Name, &outs[i].Phases)
				results[i] = e.simulateRegionCell(req, tr, &outs[i], pc)
			}
		}
		share := time.Since(runStart) / time.Duration(len(claims))
		for _, m := range claims {
			m.t.Commit(results[m.idx], resultBytes(results[m.idx]))
			outs[m.idx].Wall = share
			req := reqs[m.idx]
			e.phaseCtx(req.Cfg.Label, req.Spec.Name, &outs[m.idx].Phases).artifact(
				resultKey(req.Cfg, req.Spec.Name, req.P), artifact.Outcome{}, share)
		}
	}
	for _, m := range joins {
		results[m.idx] = m.t.Wait().(Result)
		d := time.Since(start)
		outs[m.idx].Wall = d
		// The member's wall was spent blocked on another worker's run
		// (our own lockstep run first, then the wait itself).
		req := reqs[m.idx]
		jpc := e.phaseCtx(req.Cfg.Label, req.Spec.Name, &outs[m.idx].Phases)
		jpc.add(PhaseStoreWait, d)
		jpc.artifact(resultKey(req.Cfg, req.Spec.Name, req.P), artifact.Outcome{Waited: true}, d)
	}
	// Stored records may carry another member's or sweep's display label.
	for i, req := range reqs {
		results[i].Label = req.Cfg.Label
	}
	return results, outs
}

// runCohort simulates the claimed members in lockstep. All claims share
// one workload window (PlanCohorts grouped them), so they consume the
// same recording and the same decoded chunks, and hit their warmup →
// reset boundary and their sampling boundaries at the same row.
func (e *Engine) runCohort(reqs []CellRequest, claims []int, results []Result, outs []CellOutcome, tr *Tracker) {
	first := reqs[claims[0]]
	spec, p := first.Spec, first.P
	t0 := time.Now()
	// One cohort-level phase decomposition, split evenly across the
	// claimed members when the run ends. Observer events carry the first
	// member's label (the cohort runs on one worker under one banner).
	var cph PhaseTimes
	pc := e.phaseCtx(first.Cfg.Label, spec.Name, &cph)
	tr.phase(+1, 0)

	rec, so := e.cachedRecording(spec, first.Cfg, p, tr, pc)
	machines := make([]Machine, len(claims))
	for k, ci := range claims {
		req := reqs[ci]
		outs[ci].Replayed = true
		outs[ci].StreamFromStore = so.FromStore() || k > 0
		machines[k] = e.startMachine(req, rec, &outs[ci], tr, pc)
	}
	tr.phase(-1, +1)

	// The lockstep walk implements simulateWindow exactly: each member
	// issues warmup rows, resets its stats, issues measure rows — closing
	// an interval row at every SampleEvery boundary when sampled — and
	// collects. The chunking (and the splits at those boundaries)
	// changes where batch steps end, which is timing-invisible.
	src := stream.NewReplay(rec)
	defer src.Recycle()
	var b stream.DecodedBatch // reused across chunks
	warmup, total, every := p.Warmup, p.Warmup+p.Measure, p.SampleEvery
	var consumed uint64
	resetDone := false
	var samplers []*intervalSampler // sampled windows: one per member, opened at the reset
	reset := func() {
		for _, m := range machines {
			m.ResetStats()
		}
		if every > 0 {
			samplers = make([]*intervalSampler, len(machines))
			for k, m := range machines {
				samplers[k] = newIntervalSampler(m, every)
			}
		}
		resetDone = true
	}
	tick := func() {
		for _, s := range samplers {
			s.tick()
		}
	}
	// next is the row count at which the walk pauses: the warmup
	// boundary, then each sampling boundary, then the window end.
	next := func() uint64 {
		switch {
		case !resetDone:
			return warmup
		case every > 0:
			return warmup + ((consumed-warmup)/every+1)*every
		}
		return total
	}
	if warmup == 0 {
		reset() // folded-checkpoint windows have no detailed warmup
	}
	// Decode and timing interleave chunk by chunk; accumulate each side
	// across the loop and attribute once, so the journal sees one decode
	// and one timing segment per cohort instead of one per chunk.
	var decodeWall, timingWall time.Duration
	for consumed < total {
		td := time.Now()
		b.Fill(src, cohortChunkRows)
		decodeWall += time.Since(td)
		if b.N == 0 {
			break // recording ended early (program halt)
		}
		tt := time.Now()
		for lo := 0; lo < b.N; {
			hi := b.N
			if stop := next(); consumed+uint64(hi-lo) > stop {
				hi = lo + int(stop-consumed)
			}
			for _, m := range machines {
				m.StepBatch(&b, lo, hi)
			}
			consumed += uint64(hi - lo)
			switch {
			case !resetDone && consumed == warmup:
				reset()
			case resetDone && every > 0 && (consumed-warmup)%every == 0:
				tick()
			}
			lo = hi
		}
		timingWall += time.Since(tt)
	}
	pc.add(PhaseDecode, decodeWall)
	pc.add(PhaseTiming, timingWall)
	if !resetDone {
		// The stream ended inside warmup; the live driver still resets
		// and collects an empty window.
		reset()
	}
	tick() // the trailing partial interval, if anything issued in it

	for k, ci := range claims {
		res := machines[k].Collect()
		if every > 0 {
			res.Series = samplers[k].ts
		}
		if p.FastForward > 0 {
			// The live checkpointed driver routes through SimulateFrom →
			// mergeRegions even for a single region; replicate for
			// bit-identity.
			res = mergeRegions([]Result{res}, p)
		}
		results[ci] = res
	}
	tr.phase(0, -1)
	// Bank the unclaimed remainder as build, then apportion the cohort's
	// shared cost evenly to each produced cell.
	if rest := time.Since(t0) - cph.Total(); rest > 0 {
		pc.add(PhaseBuild, rest)
	}
	share := cph.Split(len(claims))
	for _, ci := range claims {
		outs[ci].Phases.AddAll(share)
	}
	tr.CohortDone(len(claims))
	e.addCohort(len(claims))
}
