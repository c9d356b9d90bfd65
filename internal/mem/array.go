package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Array is a typed view over a region of the memory image. Workload
// builders use it to lay out CSR graphs, hash tables and matrices, and
// tests use it to check results the kernels computed.
type Array struct {
	m    *Memory
	Base uint64
	Elem uint8 // element size in bytes
	N    uint64
}

// NewArray allocates an array of n elements of elem bytes each, aligned to
// a cache line (64 bytes) so element 0 starts a line.
func (m *Memory) NewArray(n uint64, elem uint8) Array {
	base := m.Alloc(n*uint64(elem), 64)
	return Array{m: m, Base: base, Elem: elem, N: n}
}

// Addr returns the address of element i.
func (a Array) Addr(i uint64) uint64 { return a.Base + i*uint64(a.Elem) }

// Get reads element i zero-extended.
func (a Array) Get(i uint64) uint64 { return a.m.Read(a.Addr(i), a.Elem) }

// Set writes element i.
func (a Array) Set(i uint64, v uint64) { a.m.Write(a.Addr(i), v, a.Elem) }

// GetI reads element i as a signed value (only meaningful for Elem==8).
func (a Array) GetI(i uint64) int64 { return int64(a.Get(i)) }

// SetI writes a signed value to element i.
func (a Array) SetI(i uint64, v int64) { a.Set(i, uint64(v)) }

// GetF reads element i as a float64 (Elem must be 8).
func (a Array) GetF(i uint64) float64 { return a.m.ReadF64(a.Addr(i)) }

// SetF writes a float64 to element i (Elem must be 8).
func (a Array) SetF(i uint64, v float64) { a.m.WriteF64(a.Addr(i), v) }

// Bytes returns the total footprint of the array in bytes.
func (a Array) Bytes() uint64 { return a.N * uint64(a.Elem) }

// Fill sets every element to v (its low Elem bytes), a backing page at
// a time.
func (a Array) Fill(v uint64) {
	var pat [8]byte
	binary.LittleEndian.PutUint64(pat[:], v)
	e := uint64(a.Elem)
	for i := uint64(0); i < a.N; {
		b := a.span(i)
		// b holds whole elements: seed one, then double the pattern.
		copy(b, pat[:e])
		for n := e; n < uint64(len(b)); n *= 2 {
			copy(b[n:], b[:n])
		}
		i += uint64(len(b)) / e
	}
}

// SetU32s writes vs to the first len(vs) elements of a 4-byte array, a
// backing page at a time.
func (a Array) SetU32s(vs []uint32) {
	if a.Elem != 4 || uint64(len(vs)) > a.N {
		panic(fmt.Sprintf("mem: SetU32s of %d values into %d elements of %d bytes", len(vs), a.N, a.Elem))
	}
	for i := uint64(0); len(vs) > 0; {
		b := a.span(i)
		k := min(len(b)/4, len(vs))
		for j, v := range vs[:k] {
			binary.LittleEndian.PutUint32(b[4*j:], v)
		}
		vs = vs[k:]
		i += uint64(k)
	}
}

// span returns the writable bytes of element i's backing page from
// element i up to the page's or the array's end, whichever comes first.
// Arrays from NewArray start aligned to their element size, so the span
// holds whole elements and no element straddles a page.
func (a Array) span(i uint64) []byte {
	addr := a.Addr(i)
	if e := uint64(a.Elem); e == 0 || e > 8 || e&(e-1) != 0 || addr%e != 0 {
		panic(fmt.Sprintf("mem: bulk write to an array at %#x of %d-byte elements; want 1, 2, 4 or 8 bytes, aligned", a.Base, a.Elem))
	}
	off := addr & pageMask
	end := min(PageSize, off+(a.N-i)*uint64(a.Elem))
	return a.m.writePage(addr).data[off:end]
}

// ArrayWriter stores consecutive elements of an Array, looking each
// backing page up once rather than once per element: workload builders
// use it for init loops whose values are computed in order. It holds the
// current page's bytes between calls, so the image must not be cloned
// while a writer is in use.
type ArrayWriter struct {
	a   Array
	i   uint64 // next element
	buf []byte // writable bytes from element i to the end of its span
}

// Writer returns an ArrayWriter positioned at element 0.
func (a Array) Writer() ArrayWriter { return ArrayWriter{a: a} }

// Put stores the low Elem bytes of v in the next element.
func (w *ArrayWriter) Put(v uint64) {
	if len(w.buf) == 0 {
		if w.i >= w.a.N {
			panic(fmt.Sprintf("mem: ArrayWriter past the end of a %d-element array", w.a.N))
		}
		w.buf = w.a.span(w.i)
	}
	switch w.a.Elem {
	case 8:
		binary.LittleEndian.PutUint64(w.buf, v)
	case 4:
		binary.LittleEndian.PutUint32(w.buf, uint32(v))
	case 2:
		binary.LittleEndian.PutUint16(w.buf, uint16(v))
	case 1:
		w.buf[0] = byte(v)
	}
	w.buf = w.buf[w.a.Elem:]
	w.i++
}

// PutF stores a float64 in the next element (Elem must be 8).
func (w *ArrayWriter) PutF(v float64) { w.Put(math.Float64bits(v)) }
