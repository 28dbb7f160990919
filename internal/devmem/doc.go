// Package devmem simulates GPU device memory: an allocator over a bounded
// byte store whose allocations kernels run on in place. Device pointers are
// opaque handles, as in the CUDA runtime. Every allocation is backed by
// 8-byte-aligned storage, and BindBuffer hands out typed views (f32, f64,
// i32) that alias it, so binding a kernel buffer decodes nothing and kernel
// stores need no write-back. Host-to-device and device-to-host copies are
// the only byte moves; Kernel Coalescing's memory merge (paper Fig. 5) is
// charged in simulated time by the coalescer but moves no host bytes. The
// views reinterpret bytes in host order, so the package builds only for
// little-endian architectures.
//
// The allocator is a first-fit free list with adjacent-region merge and
// bump-pointer retraction, so long-lived alloc/free churn keeps the address
// space bounded by the peak working set. Capacity, Headroom and HighWater
// expose the load signals the multi-GPU placement policies (paper §V's
// multi-device serving extension) score devices by.
//
// For VP checkpoint/restore and live migration, an arena is serializable:
// Export captures every live allocation (pointer + private byte copy) and
// Replay reconstructs them — AllocAt pins an allocation at its original
// address when the span is free, and callers fall back to a fresh Alloc plus
// a pointer-rebase entry when it is not (see core's migration machinery).
package devmem
