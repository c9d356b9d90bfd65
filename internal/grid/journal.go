package grid

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The lifecycle journal is the scheduler's structured event stream: every
// decision the grid service makes — jobs entering and leaving, cells
// moving through their phases, the artifact store serving or evicting —
// becomes one JSONL line with a monotonic timestamp. The stream is the
// ground truth the Perfetto grid trace (gridtrace.go) and the phase
// attribution surfaces render from; with no journal, every emission
// site is a single nil check.

// Journal event vocabulary. Field usage per family:
//
//	job.submit    {job, n: cells, note: job name}
//	job.cancel    {job}
//	job.resume    {job, n: re-enqueued cells}
//	job.done      {job, dur_ns: submit→finish wall}
//	cell.queue    {job, cell, seq}
//	cell.start    {job, cell, seq, worker, dur_ns: queue wait}
//	cell.finish   {job, cell, seq, worker, dur_ns: wall, note: outcome}
//	cell.phase    {cell, phase, dur_ns}
//	cohort.start  {job, worker, n: width}
//	cohort.finish {job, worker, n: width, dur_ns}
//	artifact.hit / artifact.join / artifact.produce
//	              {cell, class, key, dur_ns}
//	artifact.evict{class, key, n: bytes}
//
// cell.phase and artifact.* events come from inside cell execution, which
// does not know its job or worker; they carry only the cell name
// ("label/workload") and the trace renderer re-associates them with the
// most recently started matching cell.
const (
	EvJobSubmit     = "job.submit"
	EvJobCancel     = "job.cancel"
	EvJobResume     = "job.resume"
	EvJobDone       = "job.done"
	EvCellQueue     = "cell.queue"
	EvCellStart     = "cell.start"
	EvCellFinish    = "cell.finish"
	EvCellPhase     = "cell.phase"
	EvCohortStart   = "cohort.start"
	EvCohortFinish  = "cohort.finish"
	EvArtifactHit   = "artifact.hit"
	EvArtifactJoin  = "artifact.join"
	EvArtifactProd  = "artifact.produce"
	EvArtifactEvict = "artifact.evict"
)

// JournalEvent is one journal line. TS is nanoseconds since the journal
// opened, monotonic and nondecreasing across the whole stream. Zero-value
// fields are omitted on the wire and read back as zero — no information
// is lost because the zero is the value.
type JournalEvent struct {
	TS     int64  `json:"ts"`
	Ev     string `json:"ev"`
	Job    string `json:"job,omitempty"`
	Cell   string `json:"cell,omitempty"` // "label/workload"
	Seq    int    `json:"seq,omitempty"`  // cell index within the job grid
	Worker int    `json:"worker,omitempty"`
	Phase  string `json:"phase,omitempty"`
	Class  string `json:"class,omitempty"`
	Key    string `json:"key,omitempty"`
	DurNS  int64  `json:"dur_ns,omitempty"`
	N      int64  `json:"n,omitempty"`
	Note   string `json:"note,omitempty"`
}

// appendJSON renders ev exactly as encoding/json would (same field order,
// same omitempty semantics) without an allocation per event.
func appendJSON(b []byte, ev JournalEvent) []byte {
	b = append(b, `{"ts":`...)
	b = strconv.AppendInt(b, ev.TS, 10)
	b = append(b, `,"ev":`...)
	b = strconv.AppendQuote(b, ev.Ev)
	appendStr := func(name, v string) {
		if v != "" {
			b = append(b, ',', '"')
			b = append(b, name...)
			b = append(b, '"', ':')
			b = strconv.AppendQuote(b, v)
		}
	}
	appendInt := func(name string, v int64) {
		if v != 0 {
			b = append(b, ',', '"')
			b = append(b, name...)
			b = append(b, '"', ':')
			b = strconv.AppendInt(b, v, 10)
		}
	}
	appendStr("job", ev.Job)
	appendStr("cell", ev.Cell)
	appendInt("seq", int64(ev.Seq))
	appendInt("worker", int64(ev.Worker))
	appendStr("phase", ev.Phase)
	appendStr("class", ev.Class)
	appendStr("key", ev.Key)
	appendInt("dur_ns", ev.DurNS)
	appendInt("n", ev.N)
	appendStr("note", ev.Note)
	return append(b, '}')
}

// JournalConfig configures a Journal: where the JSONL stream goes and how
// much of it to retain in memory for rendering traces.
type JournalConfig struct {
	// Writer receives the JSONL stream (nil: no streaming).
	Writer io.Writer
	// Capture retains events in memory for Events(): 0 keeps nothing,
	// n > 0 keeps a ring of the last n events, n < 0 keeps everything.
	Capture int
}

// Journal is an append-only, monotonically timestamped event stream.
// record is safe for concurrent use; the write path shares one buffer
// under the journal lock, so a streamed event costs one buffer render
// plus a buffered write.
type Journal struct {
	mu    sync.Mutex
	start time.Time
	last  int64 // last timestamp issued; enforces nondecreasing order
	sink  *trace.JSONL
	buf   []byte

	capn int            // >0: ring capacity; <0: unbounded
	ring []JournalEvent // capn > 0
	n    int            // total events offered to the ring
	all  []JournalEvent // capn < 0
}

// NewJournal opens a journal. Close it to flush the stream.
func NewJournal(cfg JournalConfig) *Journal {
	j := &Journal{start: time.Now(), capn: cfg.Capture}
	if cfg.Writer != nil {
		j.sink = trace.NewJSONL(cfg.Writer)
		j.buf = make([]byte, 0, 256)
	}
	if cfg.Capture > 0 {
		j.ring = make([]JournalEvent, cfg.Capture)
	}
	return j
}

// record stamps ev and appends it to the stream and the capture buffer.
// A nil journal records nothing: scheduler emission sites without a
// journal pay one nil check.
func (j *Journal) record(ev JournalEvent) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	ts := time.Since(j.start).Nanoseconds()
	if ts < j.last {
		ts = j.last
	}
	j.last = ts
	ev.TS = ts
	if j.sink != nil {
		j.buf = appendJSON(j.buf[:0], ev)
		j.sink.EmitRaw(j.buf)
	}
	switch {
	case j.capn < 0:
		j.all = append(j.all, ev)
	case j.capn > 0:
		j.ring[j.n%j.capn] = ev
		j.n++
	}
}

// Captures reports whether the journal retains events for Events().
func (j *Journal) Captures() bool { return j.capn != 0 }

// Events returns the captured events in chronological order (the full
// stream, or the tail that fit the capture ring).
func (j *Journal) Events() []JournalEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.capn < 0 {
		out := make([]JournalEvent, len(j.all))
		copy(out, j.all)
		return out
	}
	if j.capn == 0 {
		return nil
	}
	n := j.n
	if n > j.capn {
		n = j.capn
	}
	out := make([]JournalEvent, 0, n)
	for i := j.n - n; i < j.n; i++ {
		out = append(out, j.ring[i%j.capn])
	}
	return out
}

// Close flushes the stream and reports its first write error.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sink == nil {
		return nil
	}
	return j.sink.Close()
}

// The Journal is a sim.Observer: an engine built with one journals the
// phase segments and artifact-store traffic of its cells, and a
// scheduler over that engine journals its own job and cell lifecycle
// into the same stream.

// CellDone is a no-op: the scheduler journals cell.finish itself, with
// the job and worker the engine does not know.
func (j *Journal) CellDone(sim.CellEvent) {}

// CellPhase journals one completed phase segment.
func (j *Journal) CellPhase(ev sim.CellPhaseEvent) {
	if j == nil {
		return
	}
	j.record(JournalEvent{Ev: EvCellPhase,
		Cell:  cellName(ev.Label, ev.Workload),
		Phase: ev.Phase.String(), DurNS: ev.Dur.Nanoseconds()})
}

// Artifact journals one store resolution or eviction. Evictions arrive
// with the store lock held; record only takes the journal lock and never
// calls back into the store.
func (j *Journal) Artifact(ev sim.ArtifactEvent) {
	if j == nil {
		return
	}
	if ev.Evicted {
		j.record(JournalEvent{Ev: EvArtifactEvict,
			Class: string(ev.Key.Class), Key: ev.Key.ID, N: ev.Bytes})
		return
	}
	kind := EvArtifactProd
	switch {
	case ev.Hit:
		kind = EvArtifactHit
	case ev.Waited:
		kind = EvArtifactJoin
	}
	j.record(JournalEvent{Ev: kind,
		Cell:  cellName(ev.Label, ev.Workload),
		Class: string(ev.Key.Class), Key: ev.Key.ID,
		DurNS: ev.Dur.Nanoseconds()})
}

// journal lets a scheduler find the Journal behind its engine's
// observer: the observer itself, or the *Journal an observer embeds to
// add its own CellDone (the CLI's progress line does). A nil embedded
// journal means no journal.
func (j *Journal) journal() *Journal { return j }

// journalOf returns the journal behind an engine observer, nil if none.
func journalOf(o sim.Observer) *Journal {
	if jo, ok := o.(interface{ journal() *Journal }); ok {
		return jo.journal()
	}
	return nil
}

// cellName renders the journal identity of a cell.
func cellName(label, workload string) string {
	if label == "" && workload == "" {
		return ""
	}
	return label + "/" + workload
}

// JournalSummary is what ValidateJournal learned from a stream.
type JournalSummary struct {
	Lines  int
	Events map[string]int // event name → count
}

// ValidateJournal reads a JSONL journal stream and checks every line
// against the event schema: known event names, no unknown fields, the
// per-family required fields, parseable phases, known artifact classes,
// and nondecreasing timestamps. CI runs this over the serve-smoke
// journal so the schema documented in EXPERIMENTS.md stays honest.
func ValidateJournal(r io.Reader) (JournalSummary, error) {
	sum := JournalSummary{Events: map[string]int{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var lastTS int64
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		sum.Lines++
		var ev JournalEvent
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			return sum, fmt.Errorf("grid: journal line %d: %w", sum.Lines, err)
		}
		if ev.TS < lastTS {
			return sum, fmt.Errorf("grid: journal line %d: timestamp %d goes backwards (previous %d)", sum.Lines, ev.TS, lastTS)
		}
		lastTS = ev.TS
		if err := ev.validate(); err != nil {
			return sum, fmt.Errorf("grid: journal line %d: %w", sum.Lines, err)
		}
		sum.Events[ev.Ev]++
	}
	if err := sc.Err(); err != nil {
		return sum, err
	}
	return sum, nil
}

// validate checks the per-family required fields of one event.
func (ev JournalEvent) validate() error {
	switch ev.Ev {
	case EvJobSubmit, EvJobCancel, EvJobResume, EvJobDone:
		if ev.Job == "" {
			return fmt.Errorf("%s: missing job", ev.Ev)
		}
	case EvCellQueue:
		if ev.Job == "" || ev.Cell == "" {
			return fmt.Errorf("%s: missing job or cell", ev.Ev)
		}
	case EvCellStart, EvCellFinish:
		if ev.Job == "" || ev.Cell == "" {
			return fmt.Errorf("%s: missing job or cell", ev.Ev)
		}
		if ev.Worker <= 0 {
			return fmt.Errorf("%s: missing worker", ev.Ev)
		}
	case EvCellPhase:
		if ev.Cell == "" {
			return fmt.Errorf("%s: missing cell", ev.Ev)
		}
		if _, err := sim.ParsePhase(ev.Phase); err != nil {
			return err
		}
	case EvCohortStart, EvCohortFinish:
		if ev.Job == "" || ev.Worker <= 0 {
			return fmt.Errorf("%s: missing job or worker", ev.Ev)
		}
		if ev.N < 2 {
			return fmt.Errorf("%s: cohort width %d < 2", ev.Ev, ev.N)
		}
	case EvArtifactHit, EvArtifactJoin, EvArtifactProd:
		if !slices.Contains(artifact.Classes(), artifact.Class(ev.Class)) {
			return fmt.Errorf("%s: unknown artifact class %q", ev.Ev, ev.Class)
		}
	case EvArtifactEvict:
		if !slices.Contains(artifact.Classes(), artifact.Class(ev.Class)) {
			return fmt.Errorf("%s: unknown artifact class %q", ev.Ev, ev.Class)
		}
		if ev.N <= 0 {
			return fmt.Errorf("%s: missing byte count", ev.Ev)
		}
	default:
		return fmt.Errorf("unknown event %q", ev.Ev)
	}
	return nil
}
