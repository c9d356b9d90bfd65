package sim

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/workloads"
)

// restored builds cfg's machine over a private clone of ck's frozen
// image and restores ck into it, the way a live grid cell starts.
func restored(cfg Config, ck *Checkpoint) Machine {
	m, err := NewMachine(cfg, cloneInstance(ck.inst))
	if err != nil {
		panic(err)
	}
	m.Restore(ck)
	return m
}

// TestCheckpointRoundTripBitIdentical: interrupting a run at the
// fast-forward boundary — capture a checkpoint, restore it into a fresh
// machine — must reproduce the uninterrupted run's Result bit for bit,
// including the full metrics snapshot. This is the property the shared
// checkpoint cache rests on.
func TestCheckpointRoundTripBitIdentical(t *testing.T) {
	for _, regions := range []int{1, 3} {
		p := QuickParams()
		p.FastForward = 200_000
		p.Warm = true
		p.Regions = regions
		cfg := SVRConfig(16)
		spec := mustSpec(t, "BFS_KR")
		master := spec.Build(p.Scale)

		m1, err := NewMachine(cfg, cloneInstance(master))
		if err != nil {
			t.Fatal(err)
		}
		want := Simulate(m1, p)

		prod, err := NewMachine(cfg, cloneInstance(master))
		if err != nil {
			t.Fatal(err)
		}
		if !prod.FastForward(p.FastForward, p.Warm) {
			t.Fatal("fast-forward hit program end")
		}
		got := SimulateFrom(restored(cfg, prod.Checkpoint()), p)

		if !reflect.DeepEqual(want, got) {
			t.Errorf("regions=%d: restored run differs from uninterrupted run:\nwant %+v\ngot  %+v",
				regions, want, got)
		}
	}
}

// TestCheckpointSiblingsIndependent: one checkpoint fans out to many
// cells. Sibling machines restored from the same checkpoint share frozen
// COW pages; mutating memory in one must not leak into another, so all
// siblings — run concurrently, under -race — must match a serial
// reference exactly.
func TestCheckpointSiblingsIndependent(t *testing.T) {
	p := QuickParams()
	p.FastForward = 150_000
	p.Warm = true
	cfg := MachineConfig(InO)
	spec := mustSpec(t, "Randacc")
	master := spec.Build(p.Scale)

	prod, err := NewMachine(cfg, cloneInstance(master))
	if err != nil {
		t.Fatal(err)
	}
	if !prod.FastForward(p.FastForward, p.Warm) {
		t.Fatal("fast-forward hit program end")
	}
	ck := prod.Checkpoint()

	ref := SimulateFrom(restored(cfg, ck), p)

	const siblings = 3
	var wg sync.WaitGroup
	results := make([]Result, siblings)
	for i := 0; i < siblings; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = SimulateFrom(restored(cfg, ck), p)
		}(i)
	}
	wg.Wait()
	for i := 0; i < siblings; i++ {
		if !reflect.DeepEqual(ref, results[i]) {
			t.Errorf("sibling %d diverged from serial reference", i)
		}
	}
}

// TestSchedulerCheckpointDeterminism: the grid scheduler's shared-
// checkpoint path (one fast-forward per workload, cloned into every
// cell) must produce the same Results as direct uncached runs that
// fast-forward in place.
func TestSchedulerCheckpointDeterminism(t *testing.T) {
	t.Parallel()
	p := QuickParams()
	p.FastForward = p.Warmup + 100_000
	p.Warm = true
	p.Warmup = 0

	specs := []workloads.Spec{mustSpec(t, "BFS_KR"), mustSpec(t, "Randacc")}
	cfgs := []Config{MachineConfig(InO), SVRConfig(16)}
	rs := NewEngine(nil).RunMatrix(cfgs, specs, p)

	for _, cfg := range cfgs {
		for _, spec := range specs {
			got, ok := rs.Get(cfg.Label, spec.Name)
			if !ok {
				t.Fatalf("missing cell %s/%s", cfg.Label, spec.Name)
			}
			fresh := Run(spec, cfg, p)
			if !reflect.DeepEqual(got, fresh) {
				t.Errorf("%s/%s: scheduler cell differs from direct run", cfg.Label, spec.Name)
			}
		}
	}
}

// collectWarmView flattens the hierarchy tag state a warmed fast-forward
// claims to reproduce: cache lines (address + dirty), TLB VPNs and the
// branch-predictor tables.
type warmView struct {
	l1d, l1i, l2     []cache.LineInfo
	dtlb, itlb, stlb []uint64
}

func hierView(h *cache.Hierarchy) warmView {
	return warmView{
		l1d:  h.L1D.Lines(),
		l1i:  h.L1I.Lines(),
		l2:   h.L2.Lines(),
		dtlb: h.DTLB.VPNs(),
		itlb: h.ITLB.VPNs(),
		stlb: h.STLB.VPNs(),
	}
}

// TestFunctionalWarmingFidelity: after N instructions, a functionally
// warmed hierarchy must hold the same cache lines (tags and dirty bits),
// TLB entries and branch-predictor tables as the detailed timing model —
// warming replays the same access stream through the same tag-mutating
// code paths. Timing counters are out of scope (they reset at the
// measure boundary anyway).
func TestFunctionalWarmingFidelity(t *testing.T) {
	const n = 60_000
	for _, wl := range []string{"BFS_KR", "Randacc"} {
		spec := mustSpec(t, wl)
		master := spec.Build(QuickParams().Scale)
		cfg := MachineConfig(InO)

		det, err := NewMachine(cfg, cloneInstance(master))
		if err != nil {
			t.Fatal(err)
		}
		det.Step(n)

		warm, err := NewMachine(cfg, cloneInstance(master))
		if err != nil {
			t.Fatal(err)
		}
		warm.FastForward(n, true)

		dm, wm := det.(*inOrderMachine), warm.(*inOrderMachine)
		dv, wv := hierView(dm.h), hierView(wm.h)
		if !reflect.DeepEqual(dv.l1d, wv.l1d) {
			t.Errorf("%s: L1D contents diverge: detailed %d lines, warmed %d", wl, len(dv.l1d), len(wv.l1d))
		}
		if !reflect.DeepEqual(dv.l1i, wv.l1i) {
			t.Errorf("%s: L1I contents diverge: detailed %d lines, warmed %d", wl, len(dv.l1i), len(wv.l1i))
		}
		if !reflect.DeepEqual(dv.l2, wv.l2) {
			t.Errorf("%s: L2 contents diverge: detailed %d lines, warmed %d", wl, len(dv.l2), len(wv.l2))
		}
		if !reflect.DeepEqual(dv.dtlb, wv.dtlb) {
			t.Errorf("%s: DTLB diverges: detailed %d entries, warmed %d", wl, len(dv.dtlb), len(wv.dtlb))
		}
		if !reflect.DeepEqual(dv.itlb, wv.itlb) {
			t.Errorf("%s: ITLB diverges: detailed %d entries, warmed %d", wl, len(dv.itlb), len(wv.itlb))
		}
		if !reflect.DeepEqual(dv.stlb, wv.stlb) {
			t.Errorf("%s: STLB diverges: detailed %d entries, warmed %d", wl, len(dv.stlb), len(wv.stlb))
		}
		if !dm.core.BP.StateEqual(wm.core.BP) {
			t.Errorf("%s: branch-predictor tables diverge", wl)
		}
	}
}
