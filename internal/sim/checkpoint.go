package sim

import (
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/cpu/inorder"
	"repro/internal/emu"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// Checkpoint is a resumable machine image taken after a fast-forward:
// the architectural register state plus a frozen instance over a
// copy-on-write clone of the memory, and — when the fast-forward
// functionally warmed — deep snapshots of the cache-hierarchy and
// branch-predictor state. One checkpoint fans out to many cells: a
// machine that writes memory restores over a clone of the frozen image,
// so sibling machines mutate memory independently. Timing state (MSHRs,
// walkers, DRAM channel, core pipeline) is never part of a checkpoint; a
// restored machine starts it fresh, exactly as a machine that ran the
// fast-forward in place would.
type Checkpoint struct {
	inst *workloads.Instance // frozen: memory is the COW image at the capture point
	arch emu.ArchState
	hier *cache.HierarchyState // nil unless warmed
	bp   *bpred.Predictor      // nil unless warmed
}

// Instrs returns the architectural instruction count at capture.
func (ck *Checkpoint) Instrs() uint64 { return ck.arch.Seq }

// Bytes estimates the checkpoint's retained size for cache budgeting.
func (ck *Checkpoint) Bytes() int64 {
	n := int64(ck.inst.Mem.Pages()) * mem.PageSize
	if ck.hier != nil {
		n += ck.hier.Bytes()
	}
	return n
}

// hierWarmer adapts a hierarchy plus branch predictor to emu.Warmer,
// replaying the fetch/load/store/branch stream the detailed cores would
// have driven through them. Both cores fetch from the same synthetic
// code addresses (inorder.CodeBase + 4·pc).
type hierWarmer struct {
	h  *cache.Hierarchy
	bp *bpred.Predictor
}

func (w *hierWarmer) WarmFetch(pc int)              { w.h.WarmFetchInstr(inorder.CodeBase + uint64(pc)*4) }
func (w *hierWarmer) WarmLoad(pc int, addr uint64)  { w.h.WarmAccess(pc, addr, false) }
func (w *hierWarmer) WarmStore(pc int, addr uint64) { w.h.WarmAccess(pc, addr, true) }
func (w *hierWarmer) WarmBranch(pc int, taken bool) { w.bp.Predict(pc, taken) }

func (m *machine) FastForward(n uint64, warm bool) bool {
	if !warm {
		return m.cpu.FastForward(n) == n
	}
	m.warmed = true
	return m.cpu.FastForwardWarm(n, &hierWarmer{h: m.h, bp: m.bp}) == n
}

func (m *machine) Checkpoint() *Checkpoint {
	inst := *m.inst
	inst.Mem = m.cpu.Mem.Clone()
	ck := &Checkpoint{inst: &inst, arch: m.cpu.SaveArch()}
	if m.warmed {
		ck.hier = m.h.WarmState()
		ck.bp = m.bp.Clone()
	}
	return ck
}

func (m *machine) Restore(ck *Checkpoint) {
	m.cpu.LoadArch(ck.arch)
	if ck.hier != nil {
		m.h.SetWarmState(ck.hier)
		m.bp.CopyFrom(ck.bp)
		m.warmed = true
	}
}
