package sim

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/artifact"
	"repro/internal/workloads"
)

func mustSpec(t *testing.T, name string) workloads.Spec {
	t.Helper()
	spec, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// coldEngine returns a fresh engine with result memoization off, so
// every cell it executes really simulates.
func coldEngine() *Engine {
	e := NewEngine(nil)
	e.Artifacts().SetClassEnabled(artifact.Result, false)
	return e
}

// recorder is an Observer that keeps every event it sees.
type recorder struct {
	mu     sync.Mutex
	cells  []CellEvent
	phases []CellPhaseEvent
	arts   []ArtifactEvent
}

func (r *recorder) CellDone(ev CellEvent) {
	r.mu.Lock()
	r.cells = append(r.cells, ev)
	r.mu.Unlock()
}

func (r *recorder) CellPhase(ev CellPhaseEvent) {
	r.mu.Lock()
	r.phases = append(r.phases, ev)
	r.mu.Unlock()
}

func (r *recorder) Artifact(ev ArtifactEvent) {
	r.mu.Lock()
	r.arts = append(r.arts, ev)
	r.mu.Unlock()
}

// TestCachedCellBitIdentical: a cell served from the memo must equal both
// the run that populated it and an uncached fresh re-run, bit for bit.
func TestCachedCellBitIdentical(t *testing.T) {
	t.Parallel()
	e := NewEngine(nil)
	spec := mustSpec(t, "NAS-IS")
	p := QuickParams()
	cfg := SVRConfig(16)

	first := e.RunMatrix([]Config{cfg}, []workloads.Spec{spec}, p)
	if first.Stats.Cached != 0 || first.Stats.Cells != 1 {
		t.Fatalf("first run: %+v", first.Stats)
	}
	second := e.RunMatrix([]Config{cfg}, []workloads.Spec{spec}, p)
	if second.Stats.Cached != 1 {
		t.Fatalf("second run not cached: %+v", second.Stats)
	}
	a, _ := first.Get("SVR16", "NAS-IS")
	b, _ := second.Get("SVR16", "NAS-IS")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("cached cell differs from original:\n%+v\nvs\n%+v", a, b)
	}
	// Run() bypasses the cache entirely; the memoized record must match a
	// genuine re-simulation exactly.
	fresh := Run(spec, cfg, p)
	if !reflect.DeepEqual(a, fresh) {
		t.Errorf("cached cell differs from fresh uncached run:\n%+v\nvs\n%+v", a, fresh)
	}
}

// TestCacheKeyIgnoresLabel: sweeps relabel the default configuration all
// the time; the display label must not split the cache.
func TestCacheKeyIgnoresLabel(t *testing.T) {
	t.Parallel()
	e := NewEngine(nil)
	spec := mustSpec(t, "Randacc")
	p := QuickParams()

	e.RunMatrix([]Config{SVRConfig(16)}, []workloads.Spec{spec}, p)
	relabeled := SVRConfig(16)
	relabeled.Label = "SVR16-m16-p4"
	rs := e.RunMatrix([]Config{relabeled}, []workloads.Spec{spec}, p)
	if rs.Stats.Cached != 1 {
		t.Errorf("relabeled config missed the cache: %+v", rs.Stats)
	}
	res, ok := rs.Get("SVR16-m16-p4", "Randacc")
	if !ok || res.Label != "SVR16-m16-p4" {
		t.Errorf("cached result not relabeled: %+v ok=%v", res.Label, ok)
	}
}

// TestCacheKeySplitsOnConfigAndParams: distinct machines or windows must
// never share a cell.
func TestCacheKeySplitsOnConfigAndParams(t *testing.T) {
	t.Parallel()
	p := QuickParams()
	base := hashCell(SVRConfig(16), "NAS-IS", p)
	if hashCell(SVRConfig(32), "NAS-IS", p) == base {
		t.Error("vector length not in the key")
	}
	if hashCell(SVRConfig(16), "Randacc", p) == base {
		t.Error("workload not in the key")
	}
	p2 := p
	p2.Measure++
	if hashCell(SVRConfig(16), "NAS-IS", p2) == base {
		t.Error("window not in the key")
	}
	relabeled := SVRConfig(16)
	relabeled.Label = "anything"
	if hashCell(relabeled, "NAS-IS", p) != base {
		t.Error("label must not be in the key")
	}
}

func TestRunCacheDisabled(t *testing.T) {
	t.Parallel()
	e := coldEngine()
	spec := mustSpec(t, "Randacc")
	p := QuickParams()
	e.RunMatrix([]Config{MachineConfig(InO)}, []workloads.Spec{spec}, p)
	rs := e.RunMatrix([]Config{MachineConfig(InO)}, []workloads.Spec{spec}, p)
	if rs.Stats.Cached != 0 {
		t.Errorf("disabled cache served a cell: %+v", rs.Stats)
	}
}

func TestProgressEvents(t *testing.T) {
	t.Parallel()
	obs := &recorder{}
	e := NewEngine(obs)
	specs := []workloads.Spec{mustSpec(t, "NAS-IS"), mustSpec(t, "Randacc")}
	cfgs := []Config{MachineConfig(InO), MachineConfig(OoO)}
	e.RunMatrix(cfgs, specs, QuickParams())

	events := obs.cells
	if len(events) != len(cfgs)*len(specs) {
		t.Fatalf("got %d events, want %d", len(events), len(cfgs)*len(specs))
	}
	last := events[len(events)-1]
	if last.Done != 4 || last.Cells != 4 {
		t.Errorf("final event %+v, want Done=Cells=4", last)
	}
	for i, ev := range events {
		if ev.Done != i+1 {
			t.Errorf("event %d has Done=%d (must be sequential)", i, ev.Done)
		}
	}
}

func TestResultSetAccessors(t *testing.T) {
	t.Parallel()
	spec := mustSpec(t, "HJ2")
	rs := NewEngine(nil).RunMatrix([]Config{MachineConfig(InO), SVRConfig(16)},
		[]workloads.Spec{spec}, QuickParams())

	if got := rs.Labels(); !reflect.DeepEqual(got, []string{"SVR16", "in-order"}) {
		t.Errorf("Labels() = %v", got)
	}
	if _, ok := rs.Get("SVR16", "HJ2"); !ok {
		t.Error("Get missed an existing cell")
	}
	if _, ok := rs.Get("SVR16", "nope"); ok {
		t.Error("Get found a nonexistent cell")
	}
	if row := rs.Row("in-order"); len(row) != 1 || row["HJ2"].Instrs == 0 {
		t.Errorf("Row(in-order) = %+v", row)
	}
	blob, err := rs.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Stats SchedStats
		Cells []struct{ Label, Workload string }
	}
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("invalid ResultSet JSON: %v", err)
	}
	if decoded.Stats.Cells != 2 || len(decoded.Cells) != 2 {
		t.Errorf("JSON cells: %+v", decoded)
	}
}

func TestNewMachineUnknownKind(t *testing.T) {
	spec := mustSpec(t, "HJ2")
	inst := spec.Build(workloads.TinyScale())
	if _, err := NewMachine(Config{Core: CoreKind(99)}, inst); err == nil {
		t.Fatal("expected error for unknown core kind")
	}
}

// TestCheckParams: every preset window passes the check served jobs go
// through; windows and input sizes the workloads cannot honor do not.
func TestCheckParams(t *testing.T) {
	tiny := QuickParams()
	tiny.Scale = workloads.TinyScale()
	for name, p := range map[string]Params{"quick": QuickParams(), "default": DefaultParams(),
		"paper": PaperParams(), "tiny": tiny} {
		if err := CheckParams(p); err != nil {
			t.Errorf("%s preset refused: %v", name, err)
		}
	}
	with := func(f func(*Params)) Params {
		p := QuickParams()
		f(&p)
		return p
	}
	for name, p := range map[string]Params{
		"zero scale":         with(func(p *Params) { p.Scale = workloads.Scale{} }),
		"negative nodes":     with(func(p *Params) { p.Scale.GraphNodes = -5 }),
		"1000 elems":         with(func(p *Params) { p.Scale.Elems = 1000 }),
		"huge graph":         with(func(p *Params) { p.Scale.GraphNodes = 1 << 30 }),
		"no measure":         with(func(p *Params) { p.Measure = 0 }),
		"unbounded window":   with(func(p *Params) { p.Measure = 1 << 40 }),
		"unbounded warmup":   with(func(p *Params) { p.Warmup = 1 << 40 }),
		"1000 regions":       with(func(p *Params) { p.Regions = 1000 }),
		"per-instr sampling": with(func(p *Params) { p.SampleEvery = 1 }),
	} {
		if err := CheckParams(p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestMachinesMatchRun: Simulate over the Machine layer must reproduce
// Run exactly for every kind.
func TestMachinesMatchRun(t *testing.T) {
	spec := mustSpec(t, "Randacc")
	p := QuickParams()
	for _, cfg := range []Config{
		MachineConfig(InO), MachineConfig(IMP), MachineConfig(OoO), SVRConfig(16),
	} {
		m, err := NewMachine(cfg, spec.Build(p.Scale))
		if err != nil {
			t.Fatal(err)
		}
		got := Simulate(m, p)
		want := Run(spec, cfg, p)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Machine result diverges from Run", cfg.Label)
		}
	}
}

func TestGetExperimentUnknownListsIDs(t *testing.T) {
	_, err := GetExperiment("definitely-not-registered")
	if err == nil {
		t.Fatal("expected error")
	}
	if msg := err.Error(); !strings.Contains(msg, "fig1") || !strings.Contains(msg, "have") {
		t.Errorf("error should list known ids: %v", msg)
	}
}

func TestReportJSON(t *testing.T) {
	r := runTable2(nil, ExpParams{})
	blob, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		ID     string
		Values map[string]float64
		Sched  SchedStats
	}
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatalf("invalid report JSON: %v", err)
	}
	if decoded.ID != "table2" || decoded.Values["kib.16"] == 0 {
		t.Errorf("JSON content: %+v", decoded)
	}
}
