package hostgpu_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/coalesce"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kernels"
	"repro/internal/kir"
	"repro/internal/kpl"
	"repro/internal/kpl/kplgen"
)

// refTimingKey is the formatted-string timing-cache key the binary key
// replaced, kept as the reference the binary key must agree with.
func refTimingKey(g *hostgpu.GPU, l *hostgpu.Launch) (string, bool) {
	if l.Dyn == nil && l.Prog.NeedsDynamicProfile() {
		return "", false
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%x|%d|%d|%d|%d", l.Kernel.Signature(), l.Grid, l.Block, l.SharedMemPerBlock, l.RegsPerThread)
	names := make([]string, 0, len(l.Params))
	for name := range l.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := l.Params[name]
		fmt.Fprintf(&b, "|%s=%d:%g:%d", name, v.T, v.F, v.I)
	}
	for _, decl := range l.Kernel.Bufs {
		ptr, ok := l.Bindings[decl.Name]
		if !ok {
			return "", false
		}
		size, err := g.Mem.Size(ptr)
		if err != nil {
			return "", false
		}
		fmt.Fprintf(&b, "|%s#%d", decl.Name, size)
	}
	if l.Dyn != nil {
		fmt.Fprintf(&b, "|dyn:%x", refDynFingerprint(l.Dyn))
	}
	return b.String(), true
}

func refDynFingerprint(st *kpl.Stats) uint64 {
	h := fnv.New64a()
	for c, v := range st.Instr {
		fmt.Fprintf(h, "i%d=%g;", c, v)
	}
	refHashInt64Map(h, "t", st.Trips)
	refHashInt64Map(h, "e", st.Entries)
	refHashInt64Map(h, "l", st.BufLd)
	refHashInt64Map(h, "s", st.BufSt)
	fmt.Fprintf(h, "n=%d", st.Threads)
	return h.Sum64()
}

func refHashInt64Map(h io.Writer, tag string, m map[string]int64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s%s=%d;", tag, k, m[k])
	}
}

// refCoalesceKey is the formatted-string Kernel Match key coalesce.Key
// replaced.
func refCoalesceKey(l *hostgpu.Launch) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x/%d/%d/%d", l.Kernel.Signature(), l.Block, l.SharedMemPerBlock, l.RegsPerThread)
	names := make([]string, 0, len(l.Params))
	for name := range l.Params {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := l.Params[name]
		fmt.Fprintf(h, "%s=%d:%g:%d;", name, v.T, v.F, v.I)
	}
	return h.Sum64()
}

// sameClasses checks that two key functions partition launches into the
// same classes: got and want keys must map one-to-one.
type sameClasses[G, W comparable] struct {
	fwd map[W]G
	rev map[G]W
	eq  int // launches whose key was seen before
}

func (s *sameClasses[G, W]) add(t *testing.T, what string, i int, got G, want W) {
	t.Helper()
	if s.fwd == nil {
		s.fwd, s.rev = map[W]G{}, map[G]W{}
	}
	g, okW := s.fwd[want]
	w, okG := s.rev[got]
	if okW != okG || (okW && (g != got || w != want)) {
		t.Fatalf("%s: launch %d: keys disagree with the reference (reference %v, key %v)", what, i, want, got)
	}
	if okW {
		s.eq++
	}
	s.fwd[want], s.rev[got] = got, want
}

// TestLaunchKeysMatchReference: the binary timing-cache key and the hashed
// Kernel Match key group launches exactly as the formatted-string keys did,
// over the suite kernels and generated kernels with varied geometry,
// parameters (−0, large integers, names shared across kernels), buffer sizes
// and pre-measured stats; and Prog.Sig is each kernel's Signature.
func TestLaunchKeysMatchReference(t *testing.T) {
	g := hostgpu.New(arch.Quadro4000(), 1<<24)
	// Two allocations per size: launches binding different allocations of
	// equal size share a timing key.
	var ptrs []devmem.Ptr
	for _, size := range []int{4, 64, 4096, 4096 + 4} {
		for i := 0; i < 2; i++ {
			p, err := g.Mem.Alloc(size)
			if err != nil {
				t.Fatal(err)
			}
			ptrs = append(ptrs, p)
		}
	}
	stats := func(threads int64) *kpl.Stats {
		st := &kpl.Stats{
			Trips:   map[string]int64{"L0": 3 * threads, "L1": 7},
			Entries: map[string]int64{"L0": threads},
			BufLd:   map[string]int64{"b0": 2 * threads},
			BufSt:   map[string]int64{"b0": threads},
			Threads: int(threads),
		}
		st.Instr[arch.FP32] = float64(threads) * 1.5
		return st
	}
	// dyns[1] and dyns[2] are distinct objects with equal contents.
	dyns := []*kpl.Stats{nil, stats(64), stats(64), stats(128)}
	floats := []float64{0, math.Copysign(0, -1), 0.25, -1.5, 1e300, math.Inf(1), 3}
	ints := []int64{0, 1, -1, 1 << 40, math.MaxInt64, math.MinInt64, 3}
	value := func(rng *rand.Rand, typ kpl.Type) kpl.Value {
		return kpl.Value{T: typ, F: floats[rng.Intn(len(floats))], I: ints[rng.Intn(len(ints))]}
	}

	type kernel struct {
		k    *kpl.Kernel
		prog *kir.Program
	}
	var ks []kernel
	for _, b := range kernels.All() {
		ks = append(ks, kernel{b.Kernel, b.Prog})
	}
	rng := rand.New(rand.NewSource(1))
	for len(ks) < len(kernels.All())+3000 {
		data := make([]byte, 8+rng.Intn(56))
		rng.Read(data)
		k, _, ok := kplgen.Decode(data)
		if !ok {
			continue
		}
		prog, err := kir.Analyze(k)
		if err != nil {
			continue // valid to run, but not analyzable (kir's stricter scoping)
		}
		ks = append(ks, kernel{k, prog})
	}

	var timing sameClasses[string, string]
	var match sameClasses[uint64, uint64]
	uncacheable, n := 0, 0
	for _, kk := range ks {
		if kk.prog.Sig != kk.k.Signature() {
			t.Fatalf("%s: Prog.Sig %x, Signature %x", kk.k.Name, kk.prog.Sig, kk.k.Signature())
		}
		base := &hostgpu.Launch{
			Kernel: kk.k, Prog: kk.prog,
			Grid:              1 + rng.Intn(2),
			Block:             32 << rng.Intn(2),
			SharedMemPerBlock: 1024 * rng.Intn(2),
			RegsPerThread:     16 * rng.Intn(2),
			Params:            map[string]kpl.Value{},
			Bindings:          map[string]devmem.Ptr{},
			Dyn:               dyns[rng.Intn(len(dyns))],
		}
		for _, p := range kk.k.Params {
			if rng.Intn(8) != 0 {
				base.Params[p.Name] = value(rng, p.T)
			}
		}
		for _, decl := range kk.k.Bufs {
			if rng.Intn(32) != 0 {
				base.Bindings[decl.Name] = ptrs[rng.Intn(len(ptrs))]
			}
		}
		// Each launch differs from the kernel's base launch in at most one
		// field, so key classes repeat and near misses (−0 vs 0, an equal
		// size through another allocation) are common.
		for rep := 0; rep < 8; rep++ {
			l := *base
			l.Params = maps.Clone(base.Params)
			l.Bindings = maps.Clone(base.Bindings)
			switch rng.Intn(10) {
			case 1:
				l.Grid = 3 - l.Grid
			case 2:
				l.Block = 96 - l.Block
			case 3:
				l.SharedMemPerBlock = 1024 - l.SharedMemPerBlock
			case 4:
				l.RegsPerThread = 16 - l.RegsPerThread
			case 5:
				for _, p := range kk.k.Params {
					l.Params[p.Name] = value(rng, p.T)
					break
				}
			case 6:
				for _, decl := range kk.k.Bufs {
					l.Bindings[decl.Name] = ptrs[rng.Intn(len(ptrs))]
					break
				}
			case 7:
				l.Dyn = dyns[rng.Intn(len(dyns))]
			case 8:
				l.Params["n"] = value(rng, kpl.I32) // a name other kernels use
			case 9:
				for _, p := range kk.k.Params {
					delete(l.Params, p.Name)
					break
				}
			}

			wantT, wantOK := refTimingKey(g, &l)
			gotT, gotOK := g.TimingKey(&l)
			if gotOK != wantOK {
				t.Fatalf("%s: launch %d: cacheable %v, reference %v", kk.k.Name, n, gotOK, wantOK)
			}
			if wantOK {
				timing.add(t, "timing key", n, gotT, wantT)
			} else {
				uncacheable++
			}
			match.add(t, "coalesce key", n, coalesce.Key(&l), refCoalesceKey(&l))
			n++
		}
	}
	// The check is only as strong as the number of launches that share a
	// key with an earlier one.
	if timing.eq < (n-uncacheable)/5 || match.eq < n/3 {
		t.Fatalf("too few shared keys to compare classes: timing %d of %d cacheable, match %d of %d launches",
			timing.eq, n-uncacheable, match.eq, n)
	}
	t.Logf("%d kernels, %d launches (%d uncacheable); shared keys: timing %d, match %d",
		len(ks), n, uncacheable, timing.eq, match.eq)
}
