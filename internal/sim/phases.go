package sim

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/artifact"
)

// Phase-time attribution: every cell execution decomposes its wall time
// into a small fixed taxonomy of phases, so the scheduler, the bench
// harness and the HTTP status surface can answer "where does grid time
// go" automatically instead of by hand-profiling. Attribution is
// measured at phase-segment granularity (a handful of time.Now calls
// per cell, never per instruction) and the remainder of a cell's wall
// time that no finer phase claimed is banked as build time, so the
// per-cell sum tracks the measured wall closely.
//
// The same file carries the events an engine's Observer receives (the
// grid journal is one): one completed phase segment and one
// artifact-store resolution each become an event.

// Phase names one slice of a cell's wall-time decomposition.
type Phase uint8

// The phases of a cell's life, in display order.
const (
	// PhaseBuild: constructing workload images, machines, and any wall
	// time no finer phase claimed (the attribution remainder).
	PhaseBuild Phase = iota
	// PhaseFastForward: producing a shared post-fast-forward checkpoint
	// (the functional warmup run, captured once per workload window).
	PhaseFastForward
	// PhaseRecord: producing a shared instruction-stream recording.
	PhaseRecord
	// PhaseDecode: decoding recorded streams into the SoA batches a
	// cohort steps over.
	PhaseDecode
	// PhaseTiming: stepping timing models over the measurement window.
	PhaseTiming
	// PhaseStoreWait: blocked joining another caller's in-flight
	// production of an artifact this cell needed.
	PhaseStoreWait
	// NumPhases bounds the enum; PhaseTimes is indexed by Phase.
	NumPhases
)

var phaseNames = [NumPhases]string{
	"build", "fast-forward", "record", "decode", "timing", "store-wait",
}

// String returns the wire spelling of the phase (journal, JSON, tables).
func (p Phase) String() string {
	if p < NumPhases {
		return phaseNames[p]
	}
	return "unknown"
}

// ParsePhase maps a wire spelling back to its Phase.
func ParsePhase(s string) (Phase, error) {
	for p, n := range phaseNames {
		if n == s {
			return Phase(p), nil
		}
	}
	return 0, fmt.Errorf("sim: unknown phase %q", s)
}

// AllPhases lists every phase in display order.
func AllPhases() []Phase {
	out := make([]Phase, NumPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

// PhaseTimes is a per-phase wall-time decomposition, indexed by Phase.
// The zero value is empty and ready to use.
type PhaseTimes [NumPhases]time.Duration

// Add banks d into phase p.
func (t *PhaseTimes) Add(p Phase, d time.Duration) {
	if p < NumPhases {
		t[p] += d
	}
}

// AddAll folds o into t.
func (t *PhaseTimes) AddAll(o PhaseTimes) {
	for p := range t {
		t[p] += o[p]
	}
}

// Total returns the sum over all phases.
func (t PhaseTimes) Total() time.Duration {
	var sum time.Duration
	for _, d := range t {
		sum += d
	}
	return sum
}

// Split returns t divided evenly by k — a cohort's shared production
// cost apportioned to each member.
func (t PhaseTimes) Split(k int) PhaseTimes {
	if k <= 1 {
		return t
	}
	var out PhaseTimes
	for p, d := range t {
		out[p] = d / time.Duration(k)
	}
	return out
}

// Seconds renders the decomposition as a name → seconds map (the bench
// report form).
func (t PhaseTimes) Seconds() map[string]float64 {
	out := make(map[string]float64, NumPhases)
	for p, d := range t {
		out[phaseNames[p]] = d.Seconds()
	}
	return out
}

// MarshalJSON renders the decomposition as {"build": ns, ...} with every
// phase present (stable schema) and durations in nanoseconds.
func (t PhaseTimes) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 16*NumPhases)
	b = append(b, '{')
	for p, d := range t {
		if p > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, phaseNames[p])
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(d), 10)
	}
	return append(b, '}'), nil
}

// UnmarshalJSON parses the MarshalJSON form; unknown phases are ignored
// and missing phases read as zero.
func (t *PhaseTimes) UnmarshalJSON(data []byte) error {
	m := map[string]int64{}
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	for p, n := range phaseNames {
		t[p] = time.Duration(m[n])
	}
	return nil
}

// CellPhaseEvent reports one completed phase segment of one cell to the
// engine's observer: the cell spent Dur in Phase, ending now.
type CellPhaseEvent struct {
	Label    string // configuration label of the cell doing the work
	Workload string
	Phase    Phase
	Dur      time.Duration
}

// ArtifactEvent reports one artifact-store resolution made on behalf of
// a cell — a resident hit, a join of another caller's in-flight
// production (Waited), or a production by this cell (neither), with Dur
// the caller's wall time on it — or one entry the byte budget evicted
// (Evicted, with its Bytes).
type ArtifactEvent struct {
	Label    string // configuration label of the consuming cell ("" for shared passes)
	Workload string
	Key      artifact.Key
	Hit      bool
	Waited   bool
	Dur      time.Duration
	Evicted  bool
	Bytes    int64
}

// phaseCtx threads phase attribution through the cell core: the cell's
// identity and its engine's observer (for events) plus the accumulator
// the durations land in (usually the CellOutcome's Phases). With no
// observer an emission costs one nil check: no allocation, no lock.
type phaseCtx struct {
	obs      Observer
	label    string
	workload string
	ph       *PhaseTimes
}

// add banks one completed phase segment and reports it to the observer.
func (pc *phaseCtx) add(p Phase, d time.Duration) {
	if d <= 0 {
		return
	}
	pc.ph.Add(p, d)
	if pc.obs != nil {
		pc.obs.CellPhase(CellPhaseEvent{Label: pc.label, Workload: pc.workload, Phase: p, Dur: d})
	}
}

// artifact reports one store resolution under this cell's identity.
func (pc *phaseCtx) artifact(k artifact.Key, oc artifact.Outcome, d time.Duration) {
	if pc.obs != nil {
		pc.obs.Artifact(ArtifactEvent{Label: pc.label, Workload: pc.workload, Key: k,
			Hit: oc.Hit, Waited: oc.Waited, Dur: d})
	}
}
