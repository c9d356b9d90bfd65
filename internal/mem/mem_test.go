package mem

import (
	"testing"
	"testing/quick"
)

func TestReadWriteSizes(t *testing.T) {
	m := New()
	for _, size := range []uint8{1, 2, 4, 8} {
		addr := m.Alloc(16, 8)
		want := uint64(0x1122334455667788)
		m.Write(addr, want, size)
		mask := ^uint64(0)
		if size < 8 {
			mask = (1 << (8 * uint(size))) - 1
		}
		if got := m.Read(addr, size); got != want&mask {
			t.Errorf("size %d: got %#x, want %#x", size, got, want&mask)
		}
	}
}

func TestZeroInitialized(t *testing.T) {
	m := New()
	if got := m.Read(0x123456, 8); got != 0 {
		t.Errorf("untouched memory = %#x, want 0", got)
	}
}

func TestPageStraddle(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 3) // 8-byte access crosses the page boundary
	want := uint64(0xdeadbeefcafef00d)
	m.Write(addr, want, 8)
	if got := m.Read(addr, 8); got != want {
		t.Errorf("straddling read = %#x, want %#x", got, want)
	}
	// Verify byte placement across the boundary.
	if got := m.Read(PageSize-3, 1); got != 0x0d {
		t.Errorf("first byte = %#x, want 0x0d", got)
	}
	if got := m.Read(PageSize+4, 1); got != 0xde {
		t.Errorf("last byte = %#x, want 0xde", got)
	}
}

func TestAllocAlignmentAndDisjointness(t *testing.T) {
	m := New()
	a := m.Alloc(100, 64)
	b := m.Alloc(100, 64)
	if a%64 != 0 || b%64 != 0 {
		t.Errorf("allocations not 64-aligned: %#x %#x", a, b)
	}
	if b < a+100 {
		t.Errorf("allocations overlap: a=%#x..%#x b=%#x", a, a+100, b)
	}
	if a == 0 {
		t.Error("allocation at address 0")
	}
}

func TestAllocBadAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two alignment should panic")
		}
	}()
	New().Alloc(8, 3)
}

func TestFloatReadWrite(t *testing.T) {
	m := New()
	addr := m.Alloc(8, 8)
	m.WriteF64(addr, 3.14159)
	if got := m.ReadF64(addr); got != 3.14159 {
		t.Errorf("float round trip = %v", got)
	}
}

func TestSignedReadWrite(t *testing.T) {
	m := New()
	addr := m.Alloc(8, 8)
	m.WriteI64(addr, -42)
	if got := m.ReadI64(addr); got != -42 {
		t.Errorf("signed round trip = %d", got)
	}
}

func TestReadWriteBytesRoundTrip(t *testing.T) {
	if err := quick.Check(func(data []byte, offset uint16) bool {
		m := New()
		addr := uint64(offset) + PageSize - 8 // often straddles
		m.WriteBytes(addr, data)
		got := make([]byte, len(data))
		m.ReadBytes(addr, got)
		for i := range data {
			if got[i] != data[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestArray(t *testing.T) {
	m := New()
	a := m.NewArray(100, 4)
	for i := uint64(0); i < a.N; i++ {
		a.Set(i, uint64(i*3))
	}
	for i := uint64(0); i < a.N; i++ {
		if a.Get(i) != i*3 {
			t.Fatalf("a[%d] = %d, want %d", i, a.Get(i), i*3)
		}
	}
	if a.Addr(1)-a.Addr(0) != 4 {
		t.Error("element stride wrong")
	}
	if a.Base%64 != 0 {
		t.Error("array not line-aligned")
	}
	if a.Bytes() != 400 {
		t.Errorf("Bytes = %d", a.Bytes())
	}
}

func TestArrayFloatAndSigned(t *testing.T) {
	m := New()
	a := m.NewArray(4, 8)
	a.SetF(0, 2.5)
	a.SetI(1, -9)
	if a.GetF(0) != 2.5 || a.GetI(1) != -9 {
		t.Errorf("typed access: %v %v", a.GetF(0), a.GetI(1))
	}
}

func TestArrayFill(t *testing.T) {
	m := New()
	a := m.NewArray(10, 8)
	a.Fill(7)
	for i := uint64(0); i < 10; i++ {
		if a.Get(i) != 7 {
			t.Fatalf("a[%d]=%d after Fill(7)", i, a.Get(i))
		}
	}
}

// TestArrayBulkSetMatchesSet checks Fill, SetU32s and ArrayWriter
// against per-element Set on arrays spanning several backing pages, for
// every element size, starting mid-page and on a page boundary.
func TestArrayBulkSetMatchesSet(t *testing.T) {
	val := func(i uint64) uint64 { return i*0x9E3779B97F4A7C15 + 3 }
	for _, elem := range []uint8{1, 2, 4, 8} {
		for _, pad := range []uint64{0, 5000} {
			bulk, ref := New(), New()
			bulk.Alloc(pad, 1)
			ref.Alloc(pad, 1)
			n := 3*PageSize/uint64(elem) + 7
			fa, fr := bulk.NewArray(n, elem), ref.NewArray(n, elem)
			wa, wr := bulk.NewArray(n, elem), ref.NewArray(n, elem)
			fa.Fill(0xA1B2C3D4E5F60718)
			w := wa.Writer()
			for i := uint64(0); i < n; i++ {
				fr.Set(i, 0xA1B2C3D4E5F60718)
				w.Put(val(i))
				wr.Set(i, val(i))
			}
			if elem == 4 {
				sa, sr := bulk.NewArray(n, 4), ref.NewArray(n, 4)
				vs := make([]uint32, n-3)
				for i := range vs {
					vs[i] = uint32(val(uint64(i)))
					sr.Set(uint64(i), uint64(vs[i]))
				}
				sa.SetU32s(vs)
			}
			if bulk.Brk() != ref.Brk() || bulk.Pages() != ref.Pages() {
				t.Fatalf("elem %d pad %d: brk/pages %d/%d, want %d/%d", elem, pad, bulk.Brk(), bulk.Pages(), ref.Brk(), ref.Pages())
			}
			got, want := make([]byte, bulk.Brk()), make([]byte, ref.Brk())
			bulk.ReadBytes(0, got)
			ref.ReadBytes(0, want)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("elem %d pad %d: byte %#x = %#x, want %#x", elem, pad, i, got[i], want[i])
				}
			}
		}
	}
}

// TestArrayBulkSetCopiesOnWrite: bulk writes to a clone never reach the
// parent's shared pages.
func TestArrayBulkSetCopiesOnWrite(t *testing.T) {
	m := New()
	a := m.NewArray(2*PageSize/4, 4)
	a.Fill(1)
	c := m.Clone()
	ca := a
	ca.m = c
	ca.Fill(2)
	ca.SetU32s([]uint32{3})
	w := ca.Writer()
	w.Put(4)
	if a.Get(0) != 1 || a.Get(a.N-1) != 1 {
		t.Fatalf("parent changed: %d %d", a.Get(0), a.Get(a.N-1))
	}
	if ca.Get(0) != 4 || ca.Get(1) != 2 {
		t.Fatalf("clone = %d %d, want 4 2", ca.Get(0), ca.Get(1))
	}
}

func TestArrayBulkSetBounds(t *testing.T) {
	m := New()
	a := m.NewArray(4, 4)
	for name, f := range map[string]func(){
		"SetU32s past end": func() { a.SetU32s([]uint32{1, 2, 3, 4, 5}) },
		"SetU32s elem 8":   func() { m.NewArray(4, 8).SetU32s([]uint32{1}) },
		"Writer past end": func() {
			w := a.Writer()
			for i := 0; i < 5; i++ {
				w.Put(1)
			}
		},
		"misaligned": func() { Array{m: m, Base: a.Base + 1, Elem: 4, N: 2}.Fill(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
