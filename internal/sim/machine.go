package sim

import (
	"fmt"
	"reflect"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/cpu/inorder"
	"repro/internal/cpu/ooo"
	"repro/internal/dram"
	"repro/internal/emu"
	"repro/internal/energy"
	"repro/internal/imp"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/svr"
	"repro/internal/workloads"
)

// Machine is one runnable machine organization: a timing model bound to a
// workload instance, stepped through warmup and measurement windows. The
// standard lifecycle is construct (NewMachine) → warmup (Step) →
// ResetStats → measure (Step) → Collect; Simulate drives it. The
// multi-core driver instead interleaves Step calls on several machines
// sharing one DRAM channel.
type Machine interface {
	// Step executes up to n instructions, returning false if the program
	// ended before all n issued.
	Step(n uint64) bool
	// Instrs returns instructions committed since the last ResetStats.
	Instrs() uint64
	// Now returns the current simulated cycle (issue-cursor time), used
	// to keep co-simulated machines loosely synchronized.
	Now() int64
	// ResetStats zeroes measurement state after warmup; microarchitectural
	// state (predictors, cache contents) is preserved. It is a single
	// Registry.Reset: every component registered its counters at
	// construction.
	ResetStats()
	// Collect assembles the Result of the window since the last ResetStats.
	Collect() Result
	// Registry exposes the machine-wide metrics registry.
	Registry() *metrics.Registry
	// Stack returns the core's cumulative CPI stack (since the last
	// ResetStats); the interval sampler diffs successive reads.
	Stack() stats.CPIStack
	// FastForward functionally executes up to n instructions on the
	// architectural emulator — no timing models run, no cycles pass.
	// With warm set, cache/TLB/prefetch-tag/branch-predictor state is
	// functionally warmed alongside. Reports false if the program ended
	// before all n executed.
	FastForward(n uint64, warm bool) bool
	// Checkpoint captures the machine's resumable state (architectural
	// registers plus a COW memory clone, and warmed microarchitectural
	// snapshots after a warmed fast-forward). Only meaningful before any
	// timed stepping: timing state (MSHRs, walkers, DRAM, core pipeline)
	// is not captured.
	Checkpoint() *Checkpoint
	// Restore adopts ck's architectural and warmed state. The machine
	// must be freshly built over the checkpoint's frozen image (shared
	// when it never writes memory) or a clone of it; startMachine does
	// both for grid cells.
	Restore(ck *Checkpoint)
	// StepBatch issues rows [lo, hi) of a shared decoded batch instead
	// of stepping the machine's own emulator — the cohort driver's
	// lockstep entry point. Kinds whose companion reads memory or
	// architectural state must have a stream.ArchView attached first
	// (startMachine does it).
	StepBatch(b *stream.DecodedBatch, lo, hi int)
}

// needsArchView reports whether a kind's companion reads architectural
// state beside the instruction stream — SVR scavenges registers, flags
// and memory at the retire point, IMP chases indirections through data
// memory — so a cohort member of the kind needs a private
// stream.ArchView kept in lockstep with the shared decoded batches. The
// bare in-order and out-of-order cores read the DynInstr records alone.
func (k CoreKind) needsArchView() bool { return k == IMP || k == SVR }

// CheckConfig reports why cfg cannot be simulated faithfully: an
// unknown core kind, a cache or TLB geometry the constructors
// reject, a bad DRAM channel, or a machine parameter outside the range
// its `check:"lo,hi"` struct tag declares — zero where the model
// divides or indexes by it, a negative latency, which would simulate
// without error but report nonsense, or a size large enough to allocate
// without limit. Configurations from outside the process (served job
// bodies, the queue-state file) are checked before they are queued, so
// a bad one is refused at the door instead of crashing a worker or
// returning a wrong Result.
func CheckConfig(cfg Config) error {
	if err := checkKind(cfg.Core); err != nil {
		return err
	}
	h := cfg.Hier
	for _, g := range []struct {
		name          string
		entries, ways int
	}{
		{"L1", h.L1Size / cache.LineSize, h.L1Ways}, {"L1I", h.L1ISize / cache.LineSize, h.L1IWays},
		{"L2", h.L2Size / cache.LineSize, h.L2Ways}, {"DTLB", h.DTLBEntries, h.DTLBEntries},
		{"STLB", h.STLBEntries, h.STLBWays},
	} {
		if _, err := cache.SetCount(g.entries, g.ways); err != nil {
			return fmt.Errorf("sim: config %q: %s %w", cfg.Label, g.name, err)
		}
	}
	if err := h.DRAM.Validate(); err != nil {
		return fmt.Errorf("sim: config %q: %w", cfg.Label, err)
	}
	// The parts the core kind uses: IMP and SVR run on the in-order core.
	parts := []any{h, cfg.InO}
	switch cfg.Core {
	case OoO:
		parts[1] = cfg.OoO
	case IMP:
		parts = append(parts, cfg.IMP)
	case SVR:
		parts = append(parts, cfg.SVR)
	}
	for _, part := range parts {
		if err := checkFields(reflect.ValueOf(part)); err != nil {
			return fmt.Errorf("sim: config %q: %w", cfg.Label, err)
		}
	}
	return nil
}

// maxIntervals caps the rows one sampled window may keep (CheckParams).
const maxIntervals = 1 << 16

// CheckParams reports why p cannot be simulated faithfully: a window,
// region count or input size outside the range its `check:"lo,hi"` tag
// declares, an input size that is not a power of two (the graph
// generators round it up and the hash join refuses it), or interval
// sampling finer than maxIntervals rows per window. Like CheckConfig it
// guards the parameters of jobs from outside the process, so a bad one
// is refused at the door instead of crashing a worker or returning a
// wrong Result.
func CheckParams(p Params) error {
	for _, part := range []any{p, p.Scale} {
		if err := checkFields(reflect.ValueOf(part)); err != nil {
			return fmt.Errorf("sim: params: %w", err)
		}
	}
	if n := p.Scale.GraphNodes; n&(n-1) != 0 {
		return fmt.Errorf("sim: params: Scale.GraphNodes = %d is not a power of two", n)
	}
	if n := p.Scale.Elems; n&(n-1) != 0 {
		return fmt.Errorf("sim: params: Scale.Elems = %d is not a power of two", n)
	}
	if p.SampleEvery > 0 && p.Measure/p.SampleEvery > maxIntervals {
		return fmt.Errorf("sim: params: SampleEvery = %d splits %d measured instructions into more than %d intervals",
			p.SampleEvery, p.Measure, maxIntervals)
	}
	return nil
}

// checkFields reports the first integer field of the struct v outside
// the range of its check tag.
func checkFields(v reflect.Value) error {
	for i := 0; i < v.NumField(); i++ {
		tag := v.Type().Field(i).Tag.Get("check")
		if tag == "" {
			continue
		}
		var lo, hi int64
		if _, err := fmt.Sscanf(tag, "%d,%d", &lo, &hi); err != nil {
			panic(fmt.Sprintf("sim: bad check tag %q on %s", tag, v.Type().Field(i).Name))
		}
		f := v.Field(i)
		x := int64(0)
		if f.CanInt() {
			x = f.Int()
		} else if u := f.Uint(); u <= uint64(hi) {
			x = int64(u)
		} else {
			x = hi + 1
		}
		if x < lo || x > hi {
			return fmt.Errorf("%s.%s = %v outside [%d, %d]", v.Type(), v.Type().Field(i).Name, f, lo, hi)
		}
	}
	return nil
}

// checkKind refuses a core kind outside the four organizations the
// paper compares.
func checkKind(k CoreKind) error {
	switch k {
	case InO, IMP, OoO, SVR:
		return nil
	}
	return fmt.Errorf("sim: unknown core kind %d", k)
}

// NewMachine builds the configured machine with a private memory
// hierarchy over the given instance. The instance's memory is mutated by
// the run; callers reusing an instance must Clone it first.
func NewMachine(cfg Config, inst *workloads.Instance) (Machine, error) {
	if err := checkKind(cfg.Core); err != nil {
		return nil, err
	}
	return build(cfg, inst, cache.NewHierarchy(cfg.Hier)), nil
}

// NewMachineShared builds the configured machine with a private cache
// hierarchy on a shared DRAM channel (the §VI-E multi-core setup).
func NewMachineShared(cfg Config, inst *workloads.Instance, ch *dram.Channel) (Machine, error) {
	if err := checkKind(cfg.Core); err != nil {
		return nil, err
	}
	return build(cfg, inst, cache.NewHierarchyShared(cfg.Hier, ch)), nil
}

// build constructs a machine of a kind checkKind accepted over a
// pre-built hierarchy: the out-of-order core, or the in-order core bare
// or with the IMP prefetcher or the SVR engine as its companion.
func build(cfg Config, inst *workloads.Instance, h *cache.Hierarchy) Machine {
	cpu := emu.New(inst.Prog, inst.Mem)
	base := machine{cfg: cfg, inst: inst, h: h, cpu: cpu, src: stream.NewLive(cpu)}
	if cfg.Core == OoO {
		core := ooo.New(cfg.OoO, h)
		base.bp = core.BP
		return &oooMachine{machine: base, core: core}
	}
	core := inorder.New(cfg.InO, h)
	base.bp = core.BP
	m := &inOrderMachine{machine: base, core: core}
	switch cfg.Core {
	case IMP:
		m.core.Companion = imp.New(cfg.IMP, h, inst.Mem)
	case SVR:
		m.eng = svr.New(cfg.SVR, h, cpu)
		m.core.Companion = m.eng
	}
	return m
}

// Simulate drives a machine through the standard warmup → reset →
// measure → collect sequence shared by every experiment. With
// Params.SampleEvery set it also records the interval time series; with
// Params.FastForward or multi-region Params it runs the region schedule
// (fast-forward → detailed window, repeated) and aggregates.
func Simulate(m Machine, p Params) Result {
	if p.FastForward == 0 && p.Regions <= 1 {
		return simulateWindow(m, p)
	}
	return simulateRegions(m, p, false)
}

// SimulateFrom is Simulate for a machine already positioned at its first
// region start (restored from a post-fast-forward checkpoint): the first
// fast-forward is skipped, everything else is identical.
func SimulateFrom(m Machine, p Params) Result {
	if p.FastForward == 0 && p.Regions <= 1 {
		return simulateWindow(m, p)
	}
	return simulateRegions(m, p, true)
}

// simulateWindow runs one detailed warmup+measure window.
func simulateWindow(m Machine, p Params) Result {
	if p.SampleEvery > 0 {
		return simulateSampled(m, p)
	}
	m.Step(p.Warmup)
	m.ResetStats()
	m.Step(p.Measure)
	return m.Collect()
}

// machine is the state and lifecycle every kind shares: the instance it
// runs, the cache hierarchy whose registry holds every counter, the
// architectural emulator feeding the core, and the core's branch
// predictor. Fast-forward, checkpoint and restore (checkpoint.go), the
// stats reset and the kind-independent half of Collect live here once.
type machine struct {
	cfg    Config
	inst   *workloads.Instance
	h      *cache.Hierarchy
	cpu    *emu.CPU
	src    stream.InstrSource // the core's live instruction feed (Step)
	bp     *bpred.Predictor   // the core's predictor, trained by a warmed fast-forward
	warmed bool               // a warmed fast-forward ran; Checkpoint snapshots hierarchy state
}

func (m *machine) Registry() *metrics.Registry { return m.h.Reg }
func (m *machine) ResetStats()                 { m.h.Reg.Reset() }

// collect assembles the Result fields every kind reports from the
// core's window totals; act names the core's energy class and any
// kind-specific activity.
func (m *machine) collect(instrs uint64, cycles int64, stack stats.CPIStack, act energy.Activity) Result {
	res := Result{Workload: m.inst.Name, Label: m.cfg.Label, Metrics: m.h.Reg.Snapshot()}
	res.fillCommon(instrs, cycles, stack, m.h)
	act.Cycles, act.Instrs = cycles, instrs
	act.L1Accesses, act.L2Accesses, act.DRAMLines = m.h.L1D.Accesses, m.h.L2.Accesses, m.h.DRAM.Lines
	res.Energy = energy.Estimate(energy.DefaultParams(), act)
	return res
}

// inOrderMachine is the in-order family: the bare baseline core, and the
// same core with the IMP prefetcher or the SVR engine as its companion.
type inOrderMachine struct {
	machine
	core *inorder.Core
	eng  *svr.Engine      // non-nil only for SVR
	view *stream.ArchView // cohort-member arch view advanced during StepBatch, else nil
}

func (m *inOrderMachine) Step(n uint64) bool { return m.core.Run(m.src, n) == n }

// StepBatch issues rows [lo, hi) of a shared decoded batch — the cohort
// driver's lockstep entry point. Members with an attached arch view
// (SVR, IMP) advance it past each row before the row issues, mirroring
// the live Step-then-Issue ordering.
func (m *inOrderMachine) StepBatch(b *stream.DecodedBatch, lo, hi int) {
	if m.view != nil {
		m.core.RunBatchView(b, lo, hi, m.view)
		return
	}
	m.core.RunBatch(b, lo, hi)
}

// attachArchView installs the member's private architectural view for
// cohort batch stepping and repoints the companion engine at it. The
// view's memory image must be the same one any companion reads (the
// member's private instance clone).
func (m *inOrderMachine) attachArchView(v *stream.ArchView) {
	m.view = v
	if m.eng != nil {
		m.eng.Arch = v
	}
}

func (m *inOrderMachine) Instrs() uint64        { return m.core.Instrs }
func (m *inOrderMachine) Now() int64            { return m.core.Now() }
func (m *inOrderMachine) Stack() stats.CPIStack { return m.core.Stack }

func (m *inOrderMachine) Collect() Result {
	var sv svr.Stats
	if m.eng != nil {
		sv = m.eng.Stats
	}
	res := m.collect(m.core.Instrs, m.core.Cycles(), m.core.NormalizedStack(),
		energy.Activity{Core: energy.InOrder, SVRScalars: sv.Scalars})
	res.ExtraSlots, res.SVRStats = m.core.ExtraSlots, sv
	return res
}

// oooMachine is the out-of-order comparison core.
type oooMachine struct {
	machine
	core *ooo.Core
}

func (m *oooMachine) Step(n uint64) bool { return m.core.Run(m.src, n) == n }

// StepBatch issues rows [lo, hi) of a shared decoded batch (see the
// in-order machine's StepBatch).
func (m *oooMachine) StepBatch(b *stream.DecodedBatch, lo, hi int) { m.core.RunBatch(b, lo, hi) }

func (m *oooMachine) Instrs() uint64        { return m.core.Instrs }
func (m *oooMachine) Now() int64            { return m.core.Now() }
func (m *oooMachine) Stack() stats.CPIStack { return m.core.Stack }

func (m *oooMachine) Collect() Result {
	return m.collect(m.core.Instrs, m.core.Cycles(), m.core.NormalizedStack(), energy.Activity{Core: energy.OutOfOrder})
}
