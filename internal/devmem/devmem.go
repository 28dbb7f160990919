package devmem

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/kpl"
)

// ErrBadAllocSize reports an allocation request whose size is non-positive or
// so large that rounding it to the address-space granule would overflow int.
// It is a request error, not an out-of-memory condition: no amount of freeing
// makes such a request satisfiable.
var ErrBadAllocSize = errors.New("devmem: bad allocation size")

// ErrSpanBusy reports an AllocAt target span that overlaps a live
// allocation. Migration callers treat it as "cannot keep the original
// address" and fall back to a fresh Alloc plus a pointer-rebase entry.
var ErrSpanBusy = errors.New("devmem: span busy")

// maxAlloc is the largest request alignSpan can round up without the
// (n + 255) sum wrapping negative.
const maxAlloc = math.MaxInt - 255

// base is the first device address ever handed out. Keeping it non-zero
// preserves the CUDA convention that a zero pointer is never valid.
const base Ptr = 0x1000

// Ptr is an opaque device pointer.
type Ptr uint64

// span is one reserved or free region of the device address space.
type span struct {
	addr Ptr
	size Ptr // aligned length in bytes
}

// Mem is one device's memory. Its methods are safe for concurrent use; the
// views BindBuffer hands out are not synchronized and belong to the launch
// that bound them.
type Mem struct {
	mu       sync.Mutex
	next     Ptr
	allocs   map[Ptr][]byte
	reserved map[Ptr]Ptr // ptr → aligned span length in the address space
	free     []span      // address-sorted, coalesced free regions
	used     int64
	capacity int64
}

// New returns a device memory of the given capacity in bytes.
func New(capacity int64) *Mem {
	return &Mem{
		next:     base,
		allocs:   map[Ptr][]byte{},
		reserved: map[Ptr]Ptr{},
		capacity: capacity,
	}
}

// alignSpan rounds an allocation up to the address-space granule, keeping
// allocations aligned and non-overlapping. Callers must pre-validate
// n ∈ [1, maxAlloc]: near MaxInt the (n + 255) sum wraps negative and the
// span would silently collapse.
func alignSpan(n int) Ptr { return Ptr((n + 255) &^ 255) }

// Alloc reserves n bytes and returns the device pointer. Address space is
// reused first-fit from freed regions; the bump pointer only grows when no
// freed region fits, so a long-running alloc/free churn stays bounded.
// Requests outside [1, maxAlloc] fail with ErrBadAllocSize.
func (m *Mem) Alloc(n int) (Ptr, error) {
	if n <= 0 || n > maxAlloc {
		return 0, fmt.Errorf("devmem: alloc of %d bytes: %w", n, ErrBadAllocSize)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	// Compare against headroom rather than summing used+n, which can wrap
	// negative when n is near MaxInt and admit an impossible allocation.
	if int64(n) > m.capacity-m.used {
		return 0, fmt.Errorf("devmem: out of memory: %d requested, %d free", n, m.capacity-m.used)
	}
	need := alignSpan(n)
	var p Ptr
	fit := -1
	for i, f := range m.free {
		if f.size >= need {
			fit = i
			break
		}
	}
	if fit >= 0 {
		f := m.free[fit]
		p = f.addr
		if f.size == need {
			m.free = append(m.free[:fit], m.free[fit+1:]...)
		} else {
			m.free[fit] = span{addr: f.addr + need, size: f.size - need}
		}
	} else {
		p = m.next
		m.next += need
	}
	m.allocs[p] = newStorage(n)
	m.reserved[p] = need
	m.used += int64(n)
	return p, nil
}

// AllocAt reserves n bytes at exactly the device address p, used by
// checkpoint replay and migration to keep guest pointers valid without
// translation. The target span must be free: it either lies inside a single
// free-list region (which is carved around it) or beyond the bump pointer
// (the gap up to p, if any, joins the free list). A span overlapping a live
// allocation fails with ErrSpanBusy; size validation and the headroom check
// match Alloc, including the PR 9 overflow guards.
func (m *Mem) AllocAt(p Ptr, n int) error {
	if n <= 0 || n > maxAlloc {
		return fmt.Errorf("devmem: alloc of %d bytes at %#x: %w", n, uint64(p), ErrBadAllocSize)
	}
	need := alignSpan(n)
	if p < base || p+need < p {
		return fmt.Errorf("devmem: alloc at invalid pointer %#x", uint64(p))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if int64(n) > m.capacity-m.used {
		return fmt.Errorf("devmem: out of memory: %d requested at %#x, %d free", n, uint64(p), m.capacity-m.used)
	}
	end := p + need
	if p >= m.next {
		if p > m.next {
			m.insertFree(span{addr: m.next, size: p - m.next})
		}
		m.next = end
	} else {
		// Inside the touched address space the target must sit wholly
		// within one free region (free regions are coalesced, so a free
		// target can never straddle two).
		fit := -1
		for i, f := range m.free {
			if f.addr <= p && end <= f.addr+f.size {
				fit = i
				break
			}
		}
		if fit < 0 {
			return fmt.Errorf("devmem: alloc of %d bytes at %#x: %w", n, uint64(p), ErrSpanBusy)
		}
		f := m.free[fit]
		m.free = append(m.free[:fit], m.free[fit+1:]...)
		if f.addr < p {
			m.insertFree(span{addr: f.addr, size: p - f.addr})
		}
		if end < f.addr+f.size {
			m.insertFree(span{addr: end, size: f.addr + f.size - end})
		}
	}
	m.allocs[p] = newStorage(n)
	m.reserved[p] = need
	m.used += int64(n)
	return nil
}

// Entry is one exported allocation: its device pointer and a private copy of
// its backing bytes. A sorted []Entry is the wire/disk representation of an
// arena's live contents (the free list is derivable and not exported).
type Entry struct {
	Ptr  Ptr
	Data []byte
}

// Export snapshots every live allocation, sorted by address, with private
// byte copies. Replaying the result into a fresh arena of the same capacity
// reproduces Used, Headroom and HighWater exactly: reserved spans land at
// their original addresses, interior gaps rebuild the free list, and the
// bump pointer converges to the end of the last reserved span (which is
// where retraction pins it on the source arena).
func (m *Mem) Export() []Entry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Entry, 0, len(m.allocs))
	for p, b := range m.allocs {
		data := make([]byte, len(b))
		copy(data, b)
		out = append(out, Entry{Ptr: p, Data: data})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ptr < out[j].Ptr })
	return out
}

// Replay reconstructs exported allocations at their original addresses via
// AllocAt and restores their bytes. It fails with ErrSpanBusy if any entry
// overlaps a live allocation; entries applied before the failure remain
// (callers restoring into a fresh arena never hit this).
func (m *Mem) Replay(entries []Entry) error {
	for _, e := range entries {
		if err := m.AllocAt(e.Ptr, len(e.Data)); err != nil {
			return err
		}
		if err := m.Write(e.Ptr, 0, e.Data); err != nil {
			return err
		}
	}
	return nil
}

// Free releases the allocation at p, returning its address-space span to the
// free list. Adjacent free regions merge, and a free region that ends at the
// bump pointer retracts it, so Used() going flat means the address space is
// flat too (before this, next only ever grew and a malloc/free loop would
// exhaust the 64-bit space while Used() stayed at zero).
func (m *Mem) Free(p Ptr) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.allocs[p]
	if !ok {
		return fmt.Errorf("devmem: free of invalid pointer %#x", uint64(p))
	}
	m.used -= int64(len(b))
	delete(m.allocs, p)
	size := m.reserved[p]
	delete(m.reserved, p)
	m.insertFree(span{addr: p, size: size})
	// Retract the bump pointer over a trailing free region.
	for n := len(m.free); n > 0; n = len(m.free) {
		tail := m.free[n-1]
		if tail.addr+tail.size != m.next {
			break
		}
		m.next = tail.addr
		m.free = m.free[:n-1]
	}
	return nil
}

// insertFree adds a span to the address-sorted free list, merging it with
// adjacent regions.
func (m *Mem) insertFree(s span) {
	i := 0
	for i < len(m.free) && m.free[i].addr < s.addr {
		i++
	}
	// Merge with the predecessor when contiguous.
	if i > 0 && m.free[i-1].addr+m.free[i-1].size == s.addr {
		m.free[i-1].size += s.size
		// The grown predecessor may now touch the successor.
		if i < len(m.free) && m.free[i-1].addr+m.free[i-1].size == m.free[i].addr {
			m.free[i-1].size += m.free[i].size
			m.free = append(m.free[:i], m.free[i+1:]...)
		}
		return
	}
	// Merge with the successor when contiguous.
	if i < len(m.free) && s.addr+s.size == m.free[i].addr {
		m.free[i].addr = s.addr
		m.free[i].size += s.size
		return
	}
	m.free = append(m.free, span{})
	copy(m.free[i+1:], m.free[i:])
	m.free[i] = s
}

// Size returns the byte length of the allocation at p.
func (m *Mem) Size(p Ptr) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.allocs[p]
	if !ok {
		return 0, fmt.Errorf("devmem: size of invalid pointer %#x", uint64(p))
	}
	return len(b), nil
}

// Used returns the total allocated bytes.
func (m *Mem) Used() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// Capacity returns the device memory size in bytes.
func (m *Mem) Capacity() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.capacity
}

// Headroom returns the unallocated bytes (capacity − used) — the quantity
// memory-aware multi-GPU placement scores devices by.
func (m *Mem) Headroom() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.capacity - m.used
}

// HighWater returns the bump pointer: the end of the address space ever
// touched. Under alloc/free churn it stays bounded by the peak working set
// (the free-list regression tests pin this).
func (m *Mem) HighWater() Ptr {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.next
}

// Write copies data into the allocation at p starting at off (an H2D copy).
func (m *Mem) Write(p Ptr, off int, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.allocs[p]
	if !ok {
		return fmt.Errorf("devmem: write to invalid pointer %#x", uint64(p))
	}
	if off < 0 || off+len(data) > len(b) {
		return fmt.Errorf("devmem: write [%d,%d) outside allocation of %d bytes", off, off+len(data), len(b))
	}
	copy(b[off:], data)
	return nil
}

// Read copies n bytes out of the allocation at p starting at off (a D2H
// copy). The returned slice is a private copy.
func (m *Mem) Read(p Ptr, off, n int) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.allocs[p]
	if !ok {
		return nil, fmt.Errorf("devmem: read from invalid pointer %#x", uint64(p))
	}
	if off < 0 || n < 0 || off+n > len(b) {
		return nil, fmt.Errorf("devmem: read [%d,%d) outside allocation of %d bytes", off, off+n, len(b))
	}
	return bytes.Clone(b[off : off+n]), nil
}

// bind returns the raw backing slice (no copy) for kernel binding. Internal:
// kernel execution happens under the host service's serialization.
func (m *Mem) bind(p Ptr) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.allocs[p]
	if !ok {
		return nil, fmt.Errorf("devmem: bind of invalid pointer %#x", uint64(p))
	}
	return b, nil
}

// BindBuffer returns a typed kernel buffer that aliases the allocation at p:
// kernel stores land in device memory directly, with nothing to decode at
// bind or encode at write-back. Trailing bytes that do not fill an element
// are outside the view. The view is valid only for the launch it was bound
// for; the executor goroutine that owns device memory is its only user.
func (m *Mem) BindBuffer(p Ptr, t kpl.Type) (*kpl.Buffer, error) {
	raw, err := m.bind(p)
	if err != nil {
		return nil, err
	}
	return view(t, raw), nil
}

// WriteBuffer stores buf into the allocation at p. A view BindBuffer returned
// for p already is the allocation, so writing it back is a no-op; any other
// buffer is encoded into the allocation's leading bytes.
func (m *Mem) WriteBuffer(p Ptr, buf *kpl.Buffer) error {
	raw, err := m.bind(p)
	if err != nil {
		return err
	}
	need := buf.Bytes()
	if need > len(raw) {
		return fmt.Errorf("devmem: buffer of %d bytes exceeds allocation of %d", need, len(raw))
	}
	if src := bytesOf(buf); len(src) > 0 && &src[0] != &raw[0] {
		copy(raw, src)
	}
	return nil
}

// BufferFromBytes decodes little-endian device bytes into a typed buffer.
// Trailing bytes that do not fill an element are ignored.
func BufferFromBytes(t kpl.Type, raw []byte) *kpl.Buffer {
	buf := kpl.NewBuffer(t, len(raw)/t.Size())
	copy(bytesOf(buf), raw)
	return buf
}

// BufferToBytes encodes a typed buffer into dst, which must hold at least
// buf.Bytes() bytes.
func BufferToBytes(buf *kpl.Buffer, dst []byte) { copy(dst, bytesOf(buf)) }

// EncodeF32 packs float32 values into device bytes.
func EncodeF32(vs []float32) []byte { return encode(vs) }

// EncodeF64 packs float64 values into device bytes.
func EncodeF64(vs []float64) []byte { return encode(vs) }

// EncodeI32 packs int32 values into device bytes.
func EncodeI32(vs []int32) []byte { return encode(vs) }

// DecodeF32 unpacks device bytes as float32 values.
func DecodeF32(raw []byte) []float32 { return decode[float32](raw) }

// DecodeF64 unpacks device bytes as float64 values.
func DecodeF64(raw []byte) []float64 { return decode[float64](raw) }

// DecodeI32 unpacks device bytes as int32 values.
func DecodeI32(raw []byte) []int32 { return decode[int32](raw) }
