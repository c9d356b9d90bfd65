package cache

import "sort"

// This file is the functional-warming mirror of the timed demand paths:
// each Warm* method replays exactly the tag/LRU/victim state updates of
// its counterpart (Access, Prefetch, FetchInstr) while skipping
// everything occupancy-based — MSHRs, the page-walker pool and the DRAM
// channel are never consulted or mutated. Cache, TLB and prefetch-tag
// contents after a warmed fast-forward therefore match a detailed run
// over the same instruction stream bit for bit, with one rare exception
// the timed path cannot avoid: a line evicted while its fill is still
// MSHR-inflight is re-fetch-free in the timed model (the secondary miss
// merges with the fill) but re-filled here. Counters accumulated while
// warming (hits, misses, DRAM loads) are discarded by the
// Registry.Reset at the measurement boundary, as in any warmup.

// WarmAccess replays the state effects of a demand Access: translation
// inserts, prefetch-tag touch, L1-D lookup/fill chain and the stride
// prefetcher's reaction.
func (h *Hierarchy) WarmAccess(pc int, addr uint64, write bool) {
	h.warmTranslate(addr)
	h.Tracker.Touch(addr)
	if hit, _ := h.L1D.Lookup(addr, write, true); !hit {
		h.warmFetchLine(addr, write, OriginDemand, true)
	}
	if h.Stride != nil && !write {
		h.pfBuf = h.Stride.Observe(pc, addr, h.pfBuf[:0])
		for _, pa := range h.pfBuf {
			h.WarmPrefetch(pa, OriginStride)
		}
	}
}

// WarmPrefetch replays the state effects of a prefetch issued by origin.
func (h *Hierarchy) WarmPrefetch(addr uint64, origin Origin) {
	h.warmTranslate(addr)
	if h.L1D.Refresh(addr) {
		return
	}
	h.warmFetchLine(addr, false, origin, false)
}

// WarmFetchInstr replays the state effects of an instruction fetch:
// I-TLB inserts and the L1-I fill pair (missed line plus next-line
// prefetch).
func (h *Hierarchy) WarmFetchInstr(addr uint64) {
	if h.fetchInstrMRU(addr &^ (LineSize - 1)) {
		return
	}
	if !h.ITLB.Lookup(addr) {
		if !h.STLB.Lookup(addr) {
			h.STLB.Insert(addr)
		}
		h.ITLB.Insert(addr)
	}
	line := addr &^ (LineSize - 1)
	if hit, _ := h.L1I.Lookup(addr, false, true); hit {
		h.lastILine = line
		return
	}
	if hit, _ := h.L2.Lookup(addr, false, true); !hit {
		h.IFetchLoads++
	}
	h.L1I.Fill(addr, false, -1)
	h.L1I.Fill(line+LineSize, false, -1) // next-line prefetch
	h.lastILine = line
}

// warmTranslate mirrors translate's TLB state updates without walker
// occupancy.
func (h *Hierarchy) warmTranslate(addr uint64) {
	if h.DTLB.Lookup(addr) {
		return
	}
	if h.STLB.Lookup(addr) {
		h.DTLB.Insert(addr)
		return
	}
	h.STLB.Insert(addr)
	h.DTLB.Insert(addr)
}

// warmFetchLine mirrors fetchLine's L2/L1-D fill and prefetch-tag
// updates without MSHR or DRAM-channel occupancy.
func (h *Hierarchy) warmFetchLine(addr uint64, write bool, origin Origin, demand bool) {
	if hit, _ := h.L2.Lookup(addr, false, demand); !hit {
		h.DRAMLoads[origin]++
		pfOrigin := Origin(-1)
		if !demand {
			pfOrigin = origin
			h.Tracker.Mark(addr, origin)
		}
		if v := h.L2.Fill(addr, false, pfOrigin); v.Valid {
			h.Tracker.Evict(v.Addr)
			if v.Dirty {
				h.Writebacks++
			}
		}
	}
	pfOrigin := Origin(-1)
	if !demand {
		pfOrigin = origin
	}
	if v := h.L1D.Fill(addr, write && demand, pfOrigin); v.Valid && v.Dirty {
		if v2 := h.L2.Fill(v.Addr, true, -1); v2.Valid {
			h.Tracker.Evict(v2.Addr)
			if v2.Dirty {
				h.Writebacks++
			}
		}
	}
}

// HierarchyState is a deep snapshot of the warm-relevant hierarchy
// state: cache line arrays and LRU clocks, TLB entries, stride-table
// entries and outstanding prefetch tags. Timing state (MSHRs, walkers,
// DRAM channel) and counters are deliberately excluded — a restored
// machine starts them fresh, exactly as a warmed-in-place machine does.
type HierarchyState struct {
	l1d, l1i, l2     cacheState
	dtlb, itlb, stlb tlbState
	stride           []strideEntry     // nil when no stride prefetcher
	tags             map[uint64]Origin // outstanding prefetch tags
	lastILine        uint64
}

type cacheState struct {
	sets     []line
	lruClock uint64
}

type tlbState struct {
	vpns    []uint64
	lastUse []uint64
	clock   uint64
}

// WarmState deep-copies the hierarchy's warm-relevant state. The
// snapshot is immutable and safe to restore into any hierarchy with the
// same cache/TLB/prefetcher geometry.
func (h *Hierarchy) WarmState() *HierarchyState {
	s := &HierarchyState{
		l1d:       captureCache(h.L1D),
		l1i:       captureCache(h.L1I),
		l2:        captureCache(h.L2),
		dtlb:      captureTLB(h.DTLB),
		itlb:      captureTLB(h.ITLB),
		stlb:      captureTLB(h.STLB),
		tags:      make(map[uint64]Origin, h.Tracker.Pending()),
		lastILine: h.lastILine,
	}
	h.Tracker.each(func(a uint64, o Origin) { s.tags[a] = o })
	if h.Stride != nil {
		s.stride = append([]strideEntry(nil), h.Stride.entries...)
	}
	return s
}

// SetWarmState restores a WarmState snapshot in place. Geometry must
// match the snapshot's; MRU shortcuts and miss stashes are dropped (they
// point into pre-restore contents and are semantically transparent).
func (h *Hierarchy) SetWarmState(s *HierarchyState) {
	restoreCache(h.L1D, s.l1d)
	restoreCache(h.L1I, s.l1i)
	restoreCache(h.L2, s.l2)
	restoreTLB(h.DTLB, s.dtlb)
	restoreTLB(h.ITLB, s.itlb)
	restoreTLB(h.STLB, s.stlb)
	if h.Stride != nil {
		if len(h.Stride.entries) != len(s.stride) {
			panic("cache: warm-state stride geometry mismatch")
		}
		copy(h.Stride.entries, s.stride)
	}
	t := h.Tracker
	t.resetTags()
	for a, o := range s.tags {
		t.setTag(a, o)
	}
	h.lastILine = s.lastILine
}

// Bytes estimates the snapshot's retained size for cache budgeting.
func (s *HierarchyState) Bytes() int64 {
	const lineBytes, tlbBytes, strideBytes, tagBytes = 48, 24, 48, 16
	n := int64(len(s.l1d.sets)+len(s.l1i.sets)+len(s.l2.sets)) * lineBytes
	for _, t := range [3]tlbState{s.dtlb, s.itlb, s.stlb} {
		n += int64(len(t.vpns)) * tlbBytes
	}
	n += int64(len(s.stride)) * strideBytes
	n += int64(len(s.tags)) * tagBytes
	return n
}

func captureCache(c *Cache) cacheState {
	return cacheState{sets: append([]line(nil), c.sets...), lruClock: c.lruClock}
}

func restoreCache(c *Cache, s cacheState) {
	if len(c.sets) != len(s.sets) {
		panic("cache: warm-state geometry mismatch for " + c.Name)
	}
	copy(c.sets, s.sets)
	c.rebuildTagp()
	c.lruClock = s.lruClock
	c.fastLine, c.fastWay = 0, nil
}

func captureTLB(t *TLB) tlbState {
	return tlbState{
		vpns:    append([]uint64(nil), t.vpns...),
		lastUse: append([]uint64(nil), t.lastUse...),
		clock:   t.clock,
	}
}

func restoreTLB(t *TLB, s tlbState) {
	if len(t.vpns) != len(s.vpns) {
		panic("tlb: warm-state geometry mismatch for " + t.Name)
	}
	copy(t.vpns, s.vpns)
	copy(t.lastUse, s.lastUse)
	t.clock = s.clock
	t.fastVPN, t.fastIdx = 0, 0
	t.missVPN = 0
}

// LineInfo describes one valid cache line for state-comparison tests.
type LineInfo struct {
	Addr  uint64 // line-aligned address
	Dirty bool
}

// Lines returns every valid line's address and dirty bit, sorted by
// address — a timing-free view for warming-fidelity tests.
func (c *Cache) Lines() []LineInfo {
	var out []LineInfo
	for i, l := range c.sets {
		if l.valid {
			set := uint64(i) / uint64(c.ways)
			out = append(out, LineInfo{
				Addr:  (l.tag<<c.setBits | set) << LineBits,
				Dirty: l.dirty,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// VPNs returns every valid entry's virtual page number, sorted — the
// TLB counterpart of Lines.
func (t *TLB) VPNs() []uint64 {
	var out []uint64
	for _, k := range t.vpns {
		if k != 0 {
			out = append(out, k-1)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
