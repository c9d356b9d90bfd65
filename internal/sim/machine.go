package sim

import (
	"fmt"
	"reflect"

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
	// snapshots after a warmed fast-forward) for NewMachineFrom. Only
	// meaningful before any timed stepping: timing state (MSHRs,
	// walkers, DRAM, core pipeline) is not captured.
	Checkpoint() *Checkpoint
	// Restore adopts ck's architectural and warmed state. The machine
	// must be freshly built over a clone of the checkpointed memory;
	// NewMachineFrom does both.
	Restore(ck *Checkpoint)
	// StepBatch issues rows [lo, hi) of a shared decoded batch instead
	// of stepping the machine's own emulator — the cohort driver's
	// lockstep entry point. Kinds whose companion reads memory or
	// architectural state must have a stream.ArchView attached first
	// (newCohortMachine does it).
	StepBatch(b *stream.DecodedBatch, lo, hi int)
}

// StreamNeeds classifies what a core kind requires of its instruction
// stream, which decides what private state a cohort member needs beside
// the shared decoded batches.
type StreamNeeds int

// Stream requirement classes.
const (
	// StreamPure consumers read DynInstr records and nothing else
	// (in-order and out-of-order cores): replay needs no memory image.
	StreamPure StreamNeeds = iota
	// StreamMemory consumers dereference data memory ahead of the stream
	// (the IMP prefetcher chasing indirections): replay needs a private
	// memory image kept in lockstep by applying decoded stores.
	StreamMemory
	// StreamArch consumers read architectural registers, flags and
	// memory at the retire point (SVR's value scavenging): replay needs
	// the full stream.ArchState view — the decoder's tracked register
	// file plus a private lockstep memory image.
	StreamArch
)

// MachineFactory builds a machine of one kind over a pre-built hierarchy.
type MachineFactory func(cfg Config, inst *workloads.Instance, h *cache.Hierarchy) Machine

type machineEntry struct {
	factory MachineFactory
	needs   StreamNeeds
}

// machineFactories maps core kinds to constructors plus their stream
// requirements. New organizations register here instead of growing a
// switch in the runner.
var machineFactories = map[CoreKind]machineEntry{}

// RegisterMachine installs the factory for a core kind and declares what
// the kind requires of its instruction stream.
func RegisterMachine(kind CoreKind, f MachineFactory, needs StreamNeeds) {
	machineFactories[kind] = machineEntry{factory: f, needs: needs}
}

// StreamNeedsOf reports the stream requirement of a registered core
// kind.
func StreamNeedsOf(kind CoreKind) StreamNeeds { return machineFactories[kind].needs }

// CheckConfig reports why cfg cannot be simulated faithfully: an
// unregistered core kind, a cache or TLB geometry the constructors
// reject, a bad DRAM channel, or a machine parameter outside the range
// its `check:"lo,hi"` struct tag declares — zero where the model
// divides or indexes by it, a negative latency, which would simulate
// without error but report nonsense, or a size large enough to allocate
// without limit. Configurations from outside the process (served job
// bodies, the queue-state file) are checked before they are queued, so
// a bad one is refused at the door instead of crashing a worker or
// returning a wrong Result.
func CheckConfig(cfg Config) error {
	if _, err := factoryFor(cfg); err != nil {
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

func init() {
	RegisterMachine(InO, newInOrderMachine, StreamPure)
	RegisterMachine(IMP, newInOrderMachine, StreamMemory)
	RegisterMachine(SVR, newInOrderMachine, StreamArch)
	RegisterMachine(OoO, newOoOMachine, StreamPure)
}

// NewMachine builds the configured machine with a private memory
// hierarchy over the given instance. The instance's memory is mutated by
// the run; callers reusing an instance must Clone it first.
func NewMachine(cfg Config, inst *workloads.Instance) (Machine, error) {
	f, err := factoryFor(cfg)
	if err != nil {
		return nil, err
	}
	return f(cfg, inst, cache.NewHierarchy(cfg.Hier)), nil
}

// NewMachineShared builds the configured machine with a private cache
// hierarchy on a shared DRAM channel (the §VI-E multi-core setup).
func NewMachineShared(cfg Config, inst *workloads.Instance, ch *dram.Channel) (Machine, error) {
	f, err := factoryFor(cfg)
	if err != nil {
		return nil, err
	}
	return f(cfg, inst, cache.NewHierarchyShared(cfg.Hier, ch)), nil
}

func factoryFor(cfg Config) (MachineFactory, error) {
	e, ok := machineFactories[cfg.Core]
	if !ok {
		return nil, fmt.Errorf("sim: no machine registered for core kind %d", cfg.Core)
	}
	return e.factory, nil
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

// inOrderMachine is the in-order family: the bare baseline core, and the
// same core with the IMP prefetcher or the SVR engine as its companion.
type inOrderMachine struct {
	cfg    Config
	inst   *workloads.Instance
	h      *cache.Hierarchy
	cpu    *emu.CPU
	src    stream.InstrSource // the core's live instruction feed (Step)
	core   *inorder.Core
	eng    *svr.Engine      // non-nil only for SVR
	view   *stream.ArchView // cohort-member arch view advanced during StepBatch, else nil
	warmed bool             // a warmed fast-forward ran; Checkpoint snapshots hierarchy state
}

func newInOrderMachine(cfg Config, inst *workloads.Instance, h *cache.Hierarchy) Machine {
	m := &inOrderMachine{
		cfg:  cfg,
		inst: inst,
		h:    h,
		cpu:  emu.New(inst.Prog, inst.Mem),
		core: inorder.New(cfg.InO, h),
	}
	m.src = stream.NewLive(m.cpu)
	switch cfg.Core {
	case IMP:
		m.core.Companion = imp.New(cfg.IMP, h, inst.Mem)
	case SVR:
		m.eng = svr.New(cfg.SVR, h, m.cpu)
		m.core.Companion = m.eng
	}
	return m
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

// AttachArchView installs the member's private architectural view for
// cohort batch stepping and repoints the companion engine at it. The
// view's memory image must be the same one any companion reads (the
// member's private instance clone).
func (m *inOrderMachine) AttachArchView(v *stream.ArchView) {
	m.view = v
	if m.eng != nil {
		m.eng.Arch = v
	}
}

func (m *inOrderMachine) Instrs() uint64 { return m.core.Instrs }
func (m *inOrderMachine) Now() int64     { return m.core.Now() }

func (m *inOrderMachine) Registry() *metrics.Registry { return m.h.Reg }
func (m *inOrderMachine) ResetStats()                 { m.h.Reg.Reset() }
func (m *inOrderMachine) Stack() stats.CPIStack       { return m.core.Stack }

func (m *inOrderMachine) Collect() Result {
	res := Result{Workload: m.inst.Name, Label: m.cfg.Label, Metrics: m.h.Reg.Snapshot()}
	res.fillCommon(m.core.Instrs, m.core.Cycles(), m.core.NormalizedStack(), m.h)
	res.ExtraSlots = m.core.ExtraSlots
	var scalars int64
	if m.eng != nil {
		res.SVRStats = m.eng.Stats
		scalars = m.eng.Stats.Scalars
	}
	res.Energy = energy.Estimate(energy.DefaultParams(), energy.Activity{
		Core: energy.InOrder, Cycles: m.core.Cycles(), Instrs: m.core.Instrs,
		SVRScalars: scalars,
		L1Accesses: m.h.L1D.Accesses, L2Accesses: m.h.L2.Accesses, DRAMLines: m.h.DRAM.Lines,
	})
	return res
}

// oooMachine is the out-of-order comparison core.
type oooMachine struct {
	cfg    Config
	inst   *workloads.Instance
	h      *cache.Hierarchy
	cpu    *emu.CPU
	src    stream.InstrSource // the core's live instruction feed (Step)
	core   *ooo.Core
	warmed bool // a warmed fast-forward ran; Checkpoint snapshots hierarchy state
}

func newOoOMachine(cfg Config, inst *workloads.Instance, h *cache.Hierarchy) Machine {
	m := &oooMachine{
		cfg:  cfg,
		inst: inst,
		h:    h,
		cpu:  emu.New(inst.Prog, inst.Mem),
		core: ooo.New(cfg.OoO, h),
	}
	m.src = stream.NewLive(m.cpu)
	return m
}

func (m *oooMachine) Step(n uint64) bool { return m.core.Run(m.src, n) == n }

// StepBatch issues rows [lo, hi) of a shared decoded batch (see the
// in-order machine's StepBatch).
func (m *oooMachine) StepBatch(b *stream.DecodedBatch, lo, hi int) { m.core.RunBatch(b, lo, hi) }

func (m *oooMachine) Instrs() uint64 { return m.core.Instrs }
func (m *oooMachine) Now() int64     { return m.core.Now() }

func (m *oooMachine) Registry() *metrics.Registry { return m.h.Reg }
func (m *oooMachine) ResetStats()                 { m.h.Reg.Reset() }
func (m *oooMachine) Stack() stats.CPIStack       { return m.core.Stack }

func (m *oooMachine) Collect() Result {
	res := Result{Workload: m.inst.Name, Label: m.cfg.Label, Metrics: m.h.Reg.Snapshot()}
	res.fillCommon(m.core.Instrs, m.core.Cycles(), m.core.NormalizedStack(), m.h)
	res.Energy = energy.Estimate(energy.DefaultParams(), energy.Activity{
		Core: energy.OutOfOrder, Cycles: m.core.Cycles(), Instrs: m.core.Instrs,
		L1Accesses: m.h.L1D.Accesses, L2Accesses: m.h.L2.Accesses, DRAMLines: m.h.DRAM.Lines,
	})
	return res
}
