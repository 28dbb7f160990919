//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

package devmem

import (
	"unsafe"

	"repro/internal/kpl"
)

// Device memory is little-endian: the byte codecs in devmem.go, the guest's
// H2D/D2H payloads and the checkpoint images all agree on it. A typed view
// reinterprets an allocation's bytes in host byte order, so it aliases the
// allocation faithfully only on a little-endian host. This file is the only
// place that reinterpretation happens, and its build constraint makes a
// big-endian build fail to compile instead of silently byte-swapping.

// newStorage returns n zeroed bytes backed by 8-byte-aligned words, so every
// typed view of them (f32, i32, f64) is naturally aligned. Callers guarantee
// n ≥ 1.
func newStorage(n int) []byte {
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), n)
}

// view returns a kernel buffer whose elements alias raw, which must come from
// newStorage. Trailing bytes that do not fill an element are outside the
// view.
func view(t kpl.Type, raw []byte) *kpl.Buffer {
	n := len(raw) / t.Size()
	p := unsafe.Pointer(unsafe.SliceData(raw))
	b := &kpl.Buffer{Elem: t}
	switch t {
	case kpl.F32:
		b.F32s = unsafe.Slice((*float32)(p), n)
	case kpl.F64:
		b.F64s = unsafe.Slice((*float64)(p), n)
	default:
		b.I32s = unsafe.Slice((*int32)(p), n)
	}
	return b
}

// elem is the set of kernel element types.
type elem interface{ float32 | float64 | int32 }

// asBytes returns the host (= device) bytes of vs.
func asBytes[T elem](vs []T) []byte {
	var zero T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), len(vs)*int(unsafe.Sizeof(zero)))
}

// bytesOf returns the bytes of buf's elements.
func bytesOf(buf *kpl.Buffer) []byte {
	switch buf.Elem {
	case kpl.F32:
		return asBytes(buf.F32s)
	case kpl.F64:
		return asBytes(buf.F64s)
	default:
		return asBytes(buf.I32s)
	}
}

// encode returns a private copy of the bytes of vs.
func encode[T elem](vs []T) []byte {
	b := asBytes(vs)
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// decode ignores trailing bytes that do not fill an element.
func decode[T elem](raw []byte) []T {
	var zero T
	out := make([]T, len(raw)/int(unsafe.Sizeof(zero)))
	copy(asBytes(out), raw)
	return out
}
