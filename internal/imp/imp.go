// Package imp implements the Indirect Memory Prefetcher of Yu et al.
// (MICRO 2015), the paper's prefetcher baseline. IMP sits at the L1-D
// cache: it finds striding "index" loads with a reference prediction
// table, then correlates their loaded values with subsequent miss
// addresses to solve addr = base + (value << shift). Once a (base, shift)
// pair is confirmed, every new index value triggers prefetches for the
// next Distance indirect targets.
//
// Unlike SVR, IMP observes only L1 traffic: it has no loop-bound
// information, so it always fetches its full prefetch depth past
// inner-loop boundaries (the inaccuracy the paper reports on BFS/UR), and
// it cannot follow chains deeper than one indirection (Kangaroo, hash
// joins), multi-strided bases, or pattern-free accesses (randacc, SSSP).
package imp

import (
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Config sizes the prefetcher. The check tags are the accepted ranges of
// configurations from outside the process (sim.CheckConfig).
type Config struct {
	StrideEntries int   `check:"1,4096"` // index-load RPT entries
	IPTEntries    int   `check:"1,4096"` // indirect pattern table entries
	Distance      int   `check:"0,1024"` // indirect prefetch depth (16, as in the paper)
	MaxShift      uint8 `check:"0,16"`
	ConfMin       int
}

// DefaultConfig mirrors the paper's IMP setup with prefetch depth 16.
func DefaultConfig() Config {
	return Config{StrideEntries: 64, IPTEntries: 16, Distance: 16, MaxShift: 3, ConfMin: 2}
}

type strideEntry struct {
	pc       int
	valid    bool
	prevAddr uint64
	stride   int64
	conf     int
	lastVal  int64 // most recent loaded value
	hasVal   bool
}

// iptEntry is one indirect-pattern-table row: indirect address =
// base + (indexValue << shift), learned for one index-load PC from pairs
// of (index value, miss address) observations.
type iptEntry struct {
	indexPC int
	valid   bool

	haveFirst bool
	v1        int64  // first observed index value
	addr1     uint64 // miss address observed with v1

	shift       uint8
	base        uint64
	conf        int
	established bool
}

// Prefetcher is the IMP engine. It implements inorder.Companion (it never
// consumes issue slots — it lives in the cache, not the pipeline).
type Prefetcher struct {
	Cfg Config
	H   *cache.Hierarchy
	Mem *mem.Memory

	strides []strideEntry
	ipt     []iptEntry

	// Stats.
	Established int64
	Prefetches  int64
}

// New builds an IMP attached to the hierarchy; mem supplies index-array
// values for ahead-of-stream prefetch computation (the hardware reads the
// same values from prefetched index cache lines).
func New(cfg Config, h *cache.Hierarchy, m *mem.Memory) *Prefetcher {
	p := &Prefetcher{
		Cfg:     cfg,
		H:       h,
		Mem:     m,
		strides: make([]strideEntry, cfg.StrideEntries),
		ipt:     make([]iptEntry, cfg.IPTEntries),
	}
	h.Reg.Int64("imp.established", "indirect patterns confirmed", &p.Established)
	h.Reg.Int64("imp.prefetches", "indirect prefetches issued", &p.Prefetches)
	return p
}

// OnIssue observes every issued instruction (Companion hook).
func (p *Prefetcher) OnIssue(rec *emu.DynInstr, issueAt int64, level cache.Level) int64 {
	if rec.Instr.Kind() != isa.KindLoad {
		return 0
	}
	p.observeLoad(rec, issueAt, level)
	return 0
}

func (p *Prefetcher) observeLoad(rec *emu.DynInstr, issueAt int64, level cache.Level) {
	se := &p.strides[rec.PC%len(p.strides)]
	if !se.valid || se.pc != rec.PC {
		*se = strideEntry{pc: rec.PC, valid: true, prevAddr: rec.Addr, lastVal: rec.LoadVal, hasVal: true}
		return
	}
	stride := int64(rec.Addr) - int64(se.prevAddr)
	if stride == se.stride && stride != 0 {
		if se.conf < 3 {
			se.conf++
		}
	} else {
		se.stride = stride
		se.conf = 0
	}
	se.prevAddr = rec.Addr
	se.lastVal = rec.LoadVal
	se.hasVal = true
	if se.conf >= p.Cfg.ConfMin {
		p.onIndexLoad(se, rec, issueAt)
		return
	}
	// Not a (confident) index load: a miss here may be the indirect
	// target of some index load — try to learn the pattern.
	if level != cache.LevelL1 {
		p.tryPair(rec.PC, rec.Addr)
	}
}

// onIndexLoad fires when a confident striding (index) load executes:
// train candidate patterns and issue indirect prefetches.
func (p *Prefetcher) onIndexLoad(se *strideEntry, rec *emu.DynInstr, issueAt int64) {
	ie := &p.ipt[se.pc%len(p.ipt)]
	if !ie.valid || ie.indexPC != se.pc {
		*ie = iptEntry{indexPC: se.pc, valid: true}
	}

	if !ie.established {
		return
	}

	// Established pattern: prefetch the indirect targets of the next
	// Distance index values, reading them ahead along the stride (the
	// hardware prefetches the index lines and snoops the values).
	size := rec.Instr.Size
	for k := 1; k <= p.Cfg.Distance; k++ {
		idxAddr := rec.Addr + uint64(int64(k)*se.stride)
		v := int64(p.Mem.Read(idxAddr, size))
		target := ie.base + uint64(v)<<ie.shift
		p.H.Prefetch(target, issueAt, cache.OriginIMP)
		p.Prefetches++
	}
}

// tryPair attempts, for each confident striding load, to solve
// addr = base + (v << shift) from two (index value, miss address)
// observations: addr2 - addr1 = (v2 - v1) << shift. Repeated agreement
// with the solved candidate establishes the pattern.
func (p *Prefetcher) tryPair(missPC int, addr uint64) {
	for i := range p.strides {
		se := &p.strides[i]
		if !se.valid || se.conf < p.Cfg.ConfMin || !se.hasVal {
			continue
		}
		ie := &p.ipt[se.pc%len(p.ipt)]
		if !ie.valid || ie.indexPC != se.pc {
			*ie = iptEntry{indexPC: se.pc, valid: true}
		}
		if ie.established {
			continue
		}
		v := se.lastVal
		if !ie.haveFirst {
			ie.haveFirst = true
			ie.v1, ie.addr1 = v, addr
			continue
		}
		// A solved candidate confirms (or decays) on each new pair.
		if ie.conf > 0 {
			if addr == ie.base+uint64(v)<<ie.shift {
				ie.conf++
				if ie.conf >= p.Cfg.ConfMin {
					ie.established = true
					p.Established++
				}
			} else if v != ie.v1 {
				ie.conf--
			}
			ie.v1, ie.addr1 = v, addr
			continue
		}
		// Solve from the stored and the current observation.
		if dv := v - ie.v1; dv != 0 {
			da := int64(addr) - int64(ie.addr1)
			for shift := uint8(0); shift <= p.Cfg.MaxShift; shift++ {
				if dv<<shift == da {
					ie.shift = shift
					ie.base = addr - uint64(v)<<shift
					ie.conf = 1
					break
				}
			}
		}
		ie.v1, ie.addr1 = v, addr
	}
}
