package devmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/kpl"
)

// le encodes vals as little-endian device elements of type t, independently
// of the package's own codecs.
func le(t kpl.Type, vals ...int64) []byte {
	var out []byte
	for _, v := range vals {
		switch t {
		case kpl.F32:
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(v)))
		case kpl.F64:
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(float64(v)))
		default:
			out = binary.LittleEndian.AppendUint32(out, uint32(int32(v)))
		}
	}
	return out
}

// bits returns element i of buf as its raw bit pattern.
func bits(buf *kpl.Buffer, i int) uint64 {
	switch buf.Elem {
	case kpl.F32:
		return uint64(math.Float32bits(buf.F32s[i]))
	case kpl.F64:
		return math.Float64bits(buf.F64s[i])
	default:
		return uint64(uint32(buf.I32s[i]))
	}
}

// leBits returns the bit pattern of element i of little-endian bytes of
// element type t.
func leBits(t kpl.Type, raw []byte, i int) uint64 {
	if t == kpl.F64 {
		return binary.LittleEndian.Uint64(raw[8*i:])
	}
	return uint64(binary.LittleEndian.Uint32(raw[4*i:]))
}

// TestBindBufferAliasesAllocation: for every element type and for
// allocation sizes that are and are not whole multiples of the element (the
// trailing bytes belong to no element), the bound view reads exactly the
// allocation's little-endian elements, a store through the view is what the next Read
// returns, writing the view back leaves the bytes as they are, and a buffer
// that is not a view of the allocation is still encoded into it.
func TestBindBufferAliasesAllocation(t *testing.T) {
	for _, typ := range []kpl.Type{kpl.F32, kpl.F64, kpl.I32} {
		for _, size := range []int{1, 3, 4, 7, 8, 4097} {
			t.Run(fmt.Sprintf("%v/%d", typ, size), func(t *testing.T) {
				m := New(1 << 20)
				p, err := m.Alloc(size)
				if err != nil {
					t.Fatal(err)
				}
				init := make([]byte, size)
				for i := range init {
					init[i] = byte(7*i + 1)
				}
				if err := m.Write(p, 0, init); err != nil {
					t.Fatal(err)
				}
				n := size / typ.Size()
				v, err := m.BindBuffer(p, typ)
				if err != nil {
					t.Fatal(err)
				}
				if v.Elem != typ || v.Len() != n {
					t.Fatalf("view is %v×%d, want %v×%d", v.Elem, v.Len(), typ, n)
				}
				for i := 0; i < n; i++ {
					if got, want := bits(v, i), leBits(typ, init, i); got != want {
						t.Fatalf("view[%d] = %#x, want %#x", i, got, want)
					}
				}

				// Store through the view; Read must see it without any
				// write-back, and the trailing bytes must be untouched.
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = int64(100 + i)
					v.Set(i, kpl.IntVal(vals[i]))
				}
				want := append(le(typ, vals...), init[n*typ.Size():]...)
				raw, err := m.Read(p, 0, size)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(raw, want) {
					t.Fatalf("Read after view store = %x, want %x", raw, want)
				}

				if err := m.WriteBuffer(p, v); err != nil {
					t.Fatal(err)
				}
				if raw, _ := m.Read(p, 0, size); !bytes.Equal(raw, want) {
					t.Fatalf("WriteBuffer of the view changed bytes: %x, want %x", raw, want)
				}

				foreign := kpl.NewBuffer(typ, n)
				for i := range vals {
					vals[i] = int64(-3 - i)
					foreign.Set(i, kpl.IntVal(vals[i]))
				}
				if err := m.WriteBuffer(p, foreign); err != nil {
					t.Fatal(err)
				}
				want = append(le(typ, vals...), init[n*typ.Size():]...)
				if raw, _ := m.Read(p, 0, size); !bytes.Equal(raw, want) {
					t.Fatalf("WriteBuffer of a foreign buffer = %x, want %x", raw, want)
				}
				if n > 0 && v.At(0) != foreign.At(0) {
					t.Fatalf("view reads %v after a foreign write of %v", v.At(0), foreign.At(0))
				}
			})
		}
	}
}

// TestBindBufferTwiceAliases: one allocation bound under two buffer names
// yields two views of the same bytes, as two kernel pointers to one
// allocation do on a real GPU — a store through either is visible through
// the other.
func TestBindBufferTwiceAliases(t *testing.T) {
	m := New(1 << 20)
	p, err := m.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	in, err := m.BindBuffer(p, kpl.F32)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.BindBuffer(p, kpl.F32)
	if err != nil {
		t.Fatal(err)
	}
	out.F32s[5] = 2.5
	if in.F32s[5] != 2.5 {
		t.Fatalf("in[5] = %v after out[5] = 2.5: the two bindings do not alias", in.F32s[5])
	}
	bits, err := m.BindBuffer(p, kpl.I32)
	if err != nil {
		t.Fatal(err)
	}
	if bits.I32s[5] != 0x40200000 {
		t.Fatalf("i32 view of 2.5f = %#x, want 0x40200000", bits.I32s[5])
	}
}

// TestCodecsAreLittleEndian pins the byte codecs to little-endian element
// order, checked against encoding/binary rather than against each other.
func TestCodecsAreLittleEndian(t *testing.T) {
	vals := []int64{100, -3, 7}
	if got, want := EncodeF32([]float32{100, -3, 7}), le(kpl.F32, vals...); !bytes.Equal(got, want) {
		t.Errorf("EncodeF32 = %x, want %x", got, want)
	}
	if got, want := EncodeF64([]float64{100, -3, 7}), le(kpl.F64, vals...); !bytes.Equal(got, want) {
		t.Errorf("EncodeF64 = %x, want %x", got, want)
	}
	if got, want := EncodeI32([]int32{100, -3, 7}), le(kpl.I32, vals...); !bytes.Equal(got, want) {
		t.Errorf("EncodeI32 = %x, want %x", got, want)
	}
	// One stray trailing byte belongs to no element.
	if got := DecodeF32(append(le(kpl.F32, vals...), 0xff)); fmt.Sprint(got) != "[100 -3 7]" {
		t.Errorf("DecodeF32 = %v", got)
	}
	if got := DecodeF64(append(le(kpl.F64, vals...), 0xff)); fmt.Sprint(got) != "[100 -3 7]" {
		t.Errorf("DecodeF64 = %v", got)
	}
	if got := DecodeI32(append(le(kpl.I32, vals...), 0xff)); fmt.Sprint(got) != "[100 -3 7]" {
		t.Errorf("DecodeI32 = %v", got)
	}
	buf := BufferFromBytes(kpl.I32, append(le(kpl.I32, vals...), 0xff))
	out := make([]byte, buf.Bytes())
	BufferToBytes(buf, out)
	if fmt.Sprint(buf.I32s) != "[100 -3 7]" || !bytes.Equal(out, le(kpl.I32, vals...)) {
		t.Errorf("BufferFromBytes/BufferToBytes = %v / %x", buf.I32s, out)
	}
}
