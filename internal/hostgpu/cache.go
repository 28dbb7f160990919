package hostgpu

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"

	"repro/internal/arch"
	"repro/internal/cachemodel"
	"repro/internal/kpl"
)

// The launch-signature timing cache.
//
// σ derivation, access-stream construction and the analytic timing model are
// pure functions of (kernel, launch geometry, scalar parameters, buffer
// sizes, pre-measured dynamic stats) on a fixed architecture — yet the
// experiment harnesses evaluate them for the *same* launch thousands of
// times: every iteration of an Iterations-heavy Fig. 11 application re-prices
// an identical launch per VP, and the coalesce win predictor re-times every
// group member per merge window. The cache memoizes the full
// (σ, accesses, Timing) triple under a compact binary key (timingKey) built
// from the signature kir.Analyze hashed once per kernel.
//
// Launches whose pricing depends on live device-memory *contents* are never
// cached: data-dependent kernels without pre-measured Dyn stats sample λ from
// the current buffers at launch time, and override launches (coalesced
// merges) carry externally-summed σ.

// timingEntry is one memoized pricing. accesses and sigma are shared across
// hits and must be treated as read-only by callers.
type timingEntry struct {
	sigma     arch.ClassVec
	accesses  []cachemodel.Access
	timing    Timing
	hasTiming bool
}

// AppendMatchKey appends the launch fields that decide whether two launches
// run the same kernel the same way, grid size and buffers aside: the kernel
// signature (Prog.Sig), block size, shared memory, registers, and the scalar
// parameters in name order. The timing-cache key and the coalescer's Kernel
// Match key both start from it. The encoding is self-delimiting, so two
// launches append equal bytes exactly when those fields are equal (floats
// compare by bit pattern). l.Prog must be set.
func (l *Launch) AppendMatchKey(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, l.Prog.Sig)
	dst = binary.AppendVarint(dst, int64(l.Block))
	dst = binary.AppendVarint(dst, int64(l.SharedMemPerBlock))
	dst = binary.AppendVarint(dst, int64(l.RegsPerThread))
	var nb [16]string
	names := nb[:0]
	for name := range l.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, name := range names {
		v := l.Params[name]
		dst = binary.AppendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
		dst = append(dst, byte(v.T))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
		dst = binary.AppendVarint(dst, v.I)
	}
	return dst
}

// timingKey appends the cache key of a launch to dst, or reports it
// uncacheable. The key covers everything the pricing depends on besides the
// (fixed) architecture: the match key, the grid, per-buffer allocation sizes
// (the cache model reads them), and a fingerprint of the pre-measured
// dynamic stats. Buffer names go in with their sizes because kernels whose
// buffers differ only in declaration order share a signature.
func (g *GPU) timingKey(dst []byte, l *Launch) ([]byte, bool) {
	if g.NoTimingCache || l.SigmaOverride != nil || l.AccessesOverride != nil || l.ExecOverride != nil {
		return dst, false
	}
	if l.Dyn == nil && l.Prog.NeedsDynamicProfile() {
		// λ must be sampled from live device memory at launch time; the
		// result depends on buffer contents the key cannot see.
		return dst, false
	}
	dst = l.AppendMatchKey(dst)
	dst = binary.AppendVarint(dst, int64(l.Grid))
	for _, decl := range l.Kernel.Bufs {
		ptr, ok := l.Bindings[decl.Name]
		if !ok {
			return dst, false
		}
		size, err := g.Mem.Size(ptr)
		if err != nil {
			return dst, false
		}
		dst = binary.AppendUvarint(dst, uint64(len(decl.Name)))
		dst = append(dst, decl.Name...)
		dst = binary.AppendVarint(dst, int64(size))
	}
	if l.Dyn == nil {
		return append(dst, 0), true
	}
	dst = append(dst, 1)
	return binary.LittleEndian.AppendUint64(dst, dynFingerprint(l.Dyn)), true
}

// timingKeyBuf sizes the stack buffer timing keys are built in; longer keys
// (many or long parameter names) spill to the heap.
const timingKeyBuf = 128

// dynFingerprint hashes the contents of pre-measured dynamic stats.
func dynFingerprint(st *kpl.Stats) uint64 {
	h := fnv.New64a()
	for c, v := range st.Instr {
		fmt.Fprintf(h, "i%d=%g;", c, v)
	}
	hashInt64Map(h, "t", st.Trips)
	hashInt64Map(h, "e", st.Entries)
	hashInt64Map(h, "l", st.BufLd)
	hashInt64Map(h, "s", st.BufSt)
	fmt.Fprintf(h, "n=%d", st.Threads)
	return h.Sum64()
}

func hashInt64Map(h io.Writer, tag string, m map[string]int64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s%s=%d;", tag, k, m[k])
	}
}

// cacheLookup returns the memoized entry for key, maintaining the hit/miss
// counters. The lookup does not copy key.
func (g *GPU) cacheLookup(key []byte) *timingEntry {
	g.cacheMu.RLock()
	e := g.timingCache[string(key)]
	g.cacheMu.RUnlock()
	if e != nil {
		g.cacheHits.Add(1)
		g.Metrics.Counter("hostgpu.timing_cache.hits").Inc()
	} else {
		g.cacheMisses.Add(1)
		g.Metrics.Counter("hostgpu.timing_cache.misses").Inc()
	}
	return e
}

func (g *GPU) cacheStore(key []byte, e *timingEntry) {
	g.cacheMu.Lock()
	if g.timingCache == nil {
		g.timingCache = map[string]*timingEntry{}
	}
	g.timingCache[string(key)] = e
	g.cacheMu.Unlock()
}

// LaunchTiming returns the launch's σ, cache-model access streams and
// analytic timing breakdown, memoized by launch signature. The device's
// Launch path and the coalescer's win predictor share the cache, so repeated
// identical launches — the steady state of every Iterations-heavy
// application — price in O(1).
func (g *GPU) LaunchTiming(l *Launch) (arch.ClassVec, []cachemodel.Access, Timing, error) {
	if l.Threads() <= 0 {
		// Guard the per-thread normalization below: Scale(1/0) would price
		// the launch with NaN/Inf timings and — worse — memoize them, so
		// every later identical launch would serve the poisoned entry as a
		// cache hit.
		name := "?"
		if l.Kernel != nil {
			name = l.Kernel.Name
		}
		return arch.ClassVec{}, nil, Timing{}, fmt.Errorf("hostgpu: %s: zero-thread launch %d×%d cannot be priced", name, l.Grid, l.Block)
	}
	var kb [timingKeyBuf]byte
	key, cacheable := g.timingKey(kb[:0], l)
	var sigma arch.ClassVec
	var accesses []cachemodel.Access
	var have bool
	if cacheable {
		if e := g.cacheLookup(key); e != nil {
			if e.hasTiming {
				return e.sigma, e.accesses, e.timing, nil
			}
			sigma, accesses, have = e.sigma, e.accesses, true
		}
	}
	if !have {
		var err error
		sigma, accesses, err = g.deriveSigma(l)
		if err != nil {
			return arch.ClassVec{}, nil, Timing{}, err
		}
	}
	timing := KernelTiming(&g.Arch, l.Shape(), sigma.Scale(1/float64(l.Threads())), accesses)
	if cacheable {
		g.cacheStore(key, &timingEntry{sigma: sigma, accesses: accesses, timing: timing, hasTiming: true})
	}
	return sigma, accesses, timing, nil
}

// TimingCacheStats returns the hit/miss counters of the launch-signature
// timing cache.
func (g *GPU) TimingCacheStats() (hits, misses uint64) {
	return g.cacheHits.Load(), g.cacheMisses.Load()
}
