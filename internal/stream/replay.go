package stream

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// ReplaySource decodes a Recording back into the exact DynInstr sequence
// the recording pass produced, without touching the emulator. Decoding
// runs the encoder's derivation rules in reverse, so the hot path is a
// flags-byte dispatch plus the few varints the record actually carries.
//
// When a memory image is attached (NewReplayWithMem), stores are applied
// to it as they are decoded, keeping the image in lockstep with the
// stream position. Timing models that dereference memory ahead of the
// stream (the IMP prefetcher) see exactly the bytes a live run would
// have shown them; pure consumers (in-order, out-of-order cores) replay
// with no memory at all.
type ReplaySource struct {
	rec  *Recording
	code []isa.Instr
	mem  *mem.Memory

	pos      int
	done     uint64
	seq      uint64
	expPC    int
	prevAddr uint64
	regs     [isa.NumRegs]int64 // tracked register file, mirrors the encoder's
	flags    int                // sign of the last decoded compare, mirrors emu.CPU.Flags
	err      error
}

// NewReplay returns a source replaying r with no memory image (for
// timing models that never dereference data memory).
func NewReplay(r *Recording) *ReplaySource { return NewReplayWithMem(r, nil) }

// NewReplayWithMem returns a source replaying r that applies decoded
// stores to m. The image must be in the state the recording pass started
// from (e.g. a fresh clone of the workload image, or a checkpoint
// restored to the recording's start point). The source comes from the
// decode-scratch pool; callers that know the cell is finished hand it
// back with Recycle.
func NewReplayWithMem(r *Recording, m *mem.Memory) *ReplaySource {
	s := replayPool.Get().(*ReplaySource)
	*s = ReplaySource{
		rec:   r,
		code:  r.Prog.Code,
		mem:   m,
		seq:   r.StartSeq,
		expPC: r.StartPC,
		regs:  r.StartRegs,
		flags: r.StartFlags,
	}
	return s
}

// The decoder's tracked register file is seeded from the recording's
// architectural start state and advanced by the same write-back rules
// as execution, so a source with a memory image attached is a complete
// replay-backed ArchState: consumers (the SVR engine) observe exactly
// the values a lockstep emulator would show after the most recent Next.

// Reg returns the architectural value of register r at the stream
// position.
func (s *ReplaySource) Reg(r isa.Reg) int64 { return s.regs[r] }

// ReadMem reads data memory at the stream position. Requires an
// attached memory image (NewReplayWithMem).
func (s *ReplaySource) ReadMem(addr uint64, size uint8) uint64 { return s.mem.Read(addr, size) }

// CmpFlags returns the sign of the last compare at the stream position.
func (s *ReplaySource) CmpFlags() int { return s.flags }

// Err returns the first decode error, if any. A nil error with Next
// having returned false means the stream ended cleanly.
func (s *ReplaySource) Err() error { return s.err }

// Remaining returns how many records are left to decode.
func (s *ReplaySource) Remaining() uint64 { return s.rec.N - s.done }

func (s *ReplaySource) fail(format string, args ...any) bool {
	if s.err == nil {
		s.err = fmt.Errorf("stream: "+format, args...)
	}
	return false
}

// Next decodes one record into rec, returning false at end of stream or
// on a malformed buffer (check Err to distinguish).
func (s *ReplaySource) Next(rec *emu.DynInstr) bool {
	if s.done >= s.rec.N || s.err != nil {
		return false
	}
	buf := s.rec.Buf
	pos := s.pos
	if pos >= len(buf) {
		return s.fail("truncated buffer at record %d", s.done)
	}
	flags := buf[pos]
	pos++

	// Inline uvarint: the one-byte case covers almost every delta.
	varint := func() (uint64, bool) {
		if pos >= len(buf) {
			return 0, false
		}
		v := uint64(buf[pos])
		pos++
		if v < 0x80 {
			return v, true
		}
		v &= 0x7f
		for shift := uint(7); ; shift += 7 {
			if pos >= len(buf) || shift > 63 {
				return 0, false
			}
			b := buf[pos]
			pos++
			v |= uint64(b&0x7f) << shift
			if b < 0x80 {
				return v, true
			}
		}
	}

	pc := s.expPC
	if flags&fPC != 0 {
		u, ok := varint()
		if !ok {
			return s.fail("truncated PC delta at record %d", s.done)
		}
		pc += int(unzigzag(u))
	}
	if pc < 0 || pc >= len(s.code) {
		return s.fail("PC %d outside program at record %d", pc, s.done)
	}
	in := s.code[pc]

	srcA := s.regs[in.Ra]
	if flags&fSrcA != 0 {
		u, ok := varint()
		if !ok {
			return s.fail("truncated SrcA at record %d", s.done)
		}
		srcA += unzigzag(u)
	}
	if in.Ra != isa.R0 {
		s.regs[in.Ra] = srcA
	}

	srcB := s.regs[in.Rb]
	if in.Op == isa.OpCmpI {
		srcB = in.Imm
	}
	if flags&fSrcB != 0 {
		u, ok := varint()
		if !ok {
			return s.fail("truncated SrcB at record %d", s.done)
		}
		srcB += unzigzag(u)
	}
	if in.Rb != isa.R0 && in.Op != isa.OpCmpI {
		s.regs[in.Rb] = srcB
	}

	isMem := in.Op == isa.OpLoad || in.Op == isa.OpStore
	addr := uint64(0)
	if flags&fAddr != 0 {
		u, ok := varint()
		if !ok {
			return s.fail("truncated Addr at record %d", s.done)
		}
		addr = s.prevAddr + uint64(unzigzag(u))
	} else if isMem {
		addr = uint64(srcA + in.Imm)
	}
	if isMem {
		s.prevAddr = addr
	}

	loadVal := int64(0)
	if flags&fLoadVal != 0 {
		u, ok := varint()
		if !ok {
			return s.fail("truncated LoadVal at record %d", s.done)
		}
		loadVal = unzigzag(u)
	}

	taken := flags&fTaken != 0
	nextPC := 0
	if flags&fNextPC != 0 {
		u, ok := varint()
		if !ok {
			return s.fail("truncated NextPC at record %d", s.done)
		}
		nextPC = pc + int(unzigzag(u))
	} else {
		nextPC = ruleNextPC(in, pc, taken)
	}

	writeBack(&s.regs, in, srcA, srcB, loadVal)

	if in.Op == isa.OpCmp || in.Op == isa.OpCmpI {
		// srcB is already the immediate for cmpi (decode rule above), so
		// this mirrors Step's flag update for both compare forms.
		s.flags = emu.CmpSign(srcA, srcB)
	}
	if s.mem != nil && in.Op == isa.OpStore {
		s.mem.Write(addr, uint64(srcB), in.Size)
	}

	rec.Seq = s.seq
	rec.PC = pc
	rec.Instr = in
	rec.Addr = addr
	rec.LoadVal = loadVal
	rec.SrcA = srcA
	rec.SrcB = srcB
	rec.Taken = taken
	rec.NextPC = nextPC

	s.seq++
	s.expPC = nextPC
	s.pos = pos
	s.done++
	return true
}
