package sim

import (
	"sync"

	"repro/internal/artifact"
)

// An Engine owns everything cell execution shares: the artifact store
// (images, checkpoints, recordings and memoized results), the trackers of
// its in-flight grids, the engine's lifetime recording and cohort
// totals, and one Observer. Two engines in one process share nothing, so
// one sweep cannot change another's options or counters. Cell execution
// reaches its engine through the *Tracker it is handed (Engine.NewTracker).
//
// The nil *Engine stands for the default engine, which serves callers
// that name none: a grid scheduler built without Options.Engine, a nil
// *Tracker, and Artifacts.
type Engine struct {
	store *artifact.Store
	obs   Observer

	obsMu sync.Mutex // serializes Observer.CellDone

	mu       sync.Mutex
	trackers map[*Tracker]struct{}
	totals   Totals
}

// Observer receives one engine's events. CellDone is delivered
// sequentially, never concurrently, and before the grid that reported
// the cell can be seen finished; it runs under that grid's bookkeeping
// lock, so it must not call back into the grid (reading the engine's
// Status is fine). CellPhase and Artifact arrive from whichever worker
// did the work, so they must be safe for concurrent calls. Artifact
// also reports store evictions, from under the store lock: it must
// return quickly and must not call back into the store.
type Observer interface {
	// CellDone reports one finished cell of a grid, simulated or served
	// from the store.
	CellDone(CellEvent)
	// CellPhase reports one completed phase segment of a cell.
	CellPhase(CellPhaseEvent)
	// Artifact reports one artifact-store resolution or eviction.
	Artifact(ArtifactEvent)
}

// Totals is an engine's lifetime production accounting: the recording
// passes it ran and the lockstep cohorts it stepped.
type Totals struct {
	Recordings   int         // recording passes executed (store misses)
	StreamBytes  int64       // encoded stream bytes those passes produced
	StreamInstrs uint64      // instructions they recorded
	Cohorts      int         // lockstep cohort runs
	CohortCells  int         // cells those cohorts produced
	CohortWidths map[int]int // cohort width → cohorts run at that width
}

// NewEngine returns an engine with an empty 512 MiB artifact store
// reporting to obs (nil observes nothing).
func NewEngine(obs Observer) *Engine {
	e := &Engine{
		store:    artifact.New(512 << 20),
		obs:      obs,
		trackers: map[*Tracker]struct{}{},
	}
	if obs != nil {
		e.store.SetEvictHook(func(ev artifact.EvictEvent) {
			obs.Artifact(ArtifactEvent{Key: ev.Key, Evicted: true, Bytes: ev.Bytes})
		})
	}
	return e
}

// defaultEngine is what the nil *Engine stands for.
var defaultEngine = NewEngine(nil)

// orDefault resolves the nil *Engine to the default engine.
func (e *Engine) orDefault() *Engine {
	if e == nil {
		return defaultEngine
	}
	return e
}

// Artifacts returns the default engine's store.
func Artifacts() *artifact.Store { return defaultEngine.store }

// Artifacts returns the engine's store.
func (e *Engine) Artifacts() *artifact.Store { return e.orDefault().store }

// Observer returns the observer the engine reports to (nil if none).
func (e *Engine) Observer() Observer { return e.orDefault().obs }

// Totals returns a copy of the engine's lifetime totals.
func (e *Engine) Totals() Totals {
	e = e.orDefault()
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.totals
	t.CohortWidths = make(map[int]int, len(e.totals.CohortWidths))
	for w, n := range e.totals.CohortWidths {
		t.CohortWidths[w] = n
	}
	return t
}

// addRecording banks one recording pass.
func (e *Engine) addRecording(bytes int64, instrs uint64) {
	e.mu.Lock()
	e.totals.Recordings++
	e.totals.StreamBytes += bytes
	e.totals.StreamInstrs += instrs
	e.mu.Unlock()
}

// addCohort banks one lockstep cohort of width cells.
func (e *Engine) addCohort(width int) {
	e.mu.Lock()
	e.totals.Cohorts++
	e.totals.CohortCells += width
	if e.totals.CohortWidths == nil {
		e.totals.CohortWidths = map[int]int{}
	}
	e.totals.CohortWidths[width]++
	e.mu.Unlock()
}

// cellDone delivers one finished cell to the observer.
func (e *Engine) cellDone(ev CellEvent) {
	if e.obs == nil {
		return
	}
	e.obsMu.Lock()
	defer e.obsMu.Unlock()
	e.obs.CellDone(ev)
}

// phaseCtx opens the phase attribution of one cell (or one cohort, under
// its first member's identity), banking into ph.
func (e *Engine) phaseCtx(label, workload string, ph *PhaseTimes) *phaseCtx {
	return &phaseCtx{obs: e.obs, label: label, workload: workload, ph: ph}
}
