// Package coalesce implements Kernel Coalescing (paper Section 3): when
// several VPs invoke the *identical* kernel at the same time, the
// Re-scheduler's Kernel Match stage groups the requests, the memory chunks
// of the constituent launches are merged into one physically-contiguous
// region per kernel buffer (Fig. 5), a single kernel instance runs over the
// merged data (Fig. 6b), and the results are scattered back to each VP's
// memory. The gather and scatter are device-to-device copies charged in
// simulated time; on the host no bytes move, because each constituent runs
// in place on its own allocations, which is what the merged kernel computes.
// A merge is accepted only when the device has headroom for the merged
// buffers and the device's timing model predicts a win.
//
// Gains, all emergent from the device model: one launch overhead To instead
// of N (Eq. 9), a grid of Σ blocks that fills SM waves where the small
// per-VP grids each wasted one (data alignment), and the extra parallelism
// of the merged grid when the constituents undersubscribe the device
// (Fig. 10a).
package coalesce
