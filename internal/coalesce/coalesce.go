package coalesce

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/cachemodel"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kpl"
	"repro/internal/profile"
	"repro/internal/sched"
)

// Key fingerprints a kernel launch for the Kernel Match stage: two launches
// are mergeable when their kernels are structurally identical and their
// block shapes and scalar parameters agree. It is the FNV-1a/64 hash of the
// launch's match key (hostgpu.Launch.AppendMatchKey).
func Key(l *hostgpu.Launch) uint64 {
	var kb [128]byte
	h := uint64(14695981039346656037)
	for _, c := range l.AppendMatchKey(kb[:0]) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// Apply performs the Kernel Match + merge pass over a batch: groups of ≥2
// coalescable kernel jobs with equal keys (one job per VP at most) are
// replaced by a single merged job. The returned batch preserves every
// remaining job and inserts each merged job at its last member's position,
// with dependencies wired so the Re-scheduler cannot hoist it above any
// member's earlier operations. Member jobs are finished by the merged job's
// execution.
func Apply(g *hostgpu.GPU, batch []*sched.Job) []*sched.Job {
	groups := map[uint64][]*sched.Job{}
	vpSeen := map[uint64]map[int]bool{}
	for _, j := range batch {
		if j.Launch == nil || !j.Coalescable {
			continue
		}
		if j.Launch.Kernel == nil || j.Launch.Prog == nil {
			continue // left for hostgpu.Launch to fail with an error
		}
		k := Key(j.Launch)
		if vpSeen[k] == nil {
			vpSeen[k] = map[int]bool{}
		}
		if vpSeen[k][j.VP] {
			continue // one invocation per VP per merge window
		}
		vpSeen[k][j.VP] = true
		groups[k] = append(groups[k], j)
	}

	replaced := map[*sched.Job]*sched.Job{} // member → merged
	for _, members := range groups {
		if len(members) < 2 {
			continue
		}
		// Kernel Match found a mergeable group; the win predictor decides
		// whether merging actually pays.
		g.Metrics.Counter("coalesce.matches").Inc()
		if !beneficial(g, members) {
			g.Metrics.Counter("coalesce.rejected").Inc()
			continue
		}
		g.Metrics.Counter("coalesce.wins").Inc()
		g.Metrics.Counter("coalesce.jobs_merged").Add(int64(len(members)))
		merged := Merge(g, members)
		for _, m := range members {
			replaced[m] = merged
		}
	}
	if len(replaced) == 0 {
		return batch
	}

	// Rebuild the batch: drop members, insert each merged job at its last
	// member's slot, and wire dependencies across chains.
	lastIdx := map[*sched.Job]int{}
	isMerged := map[*sched.Job]bool{}
	for i, j := range batch {
		if merged, ok := replaced[j]; ok {
			lastIdx[merged] = i
			isMerged[merged] = true
		}
	}
	prevInChain := map[[2]int]*sched.Job{}
	out := make([]*sched.Job, 0, len(batch))
	for i, j := range batch {
		ck := [2]int{j.VP, j.Stream}
		if merged, ok := replaced[j]; ok {
			// The merged job must run after the member's predecessors…
			if prev := prevInChain[ck]; prev != nil {
				merged.Deps = append(merged.Deps, prev)
			}
			// …and the member's successors must run after the merged job.
			prevInChain[ck] = merged
			if lastIdx[merged] == i {
				out = append(out, merged)
			}
			continue
		}
		// Cross-chain dependency: a job following a coalesced member in its
		// chain must wait for the merged job.
		if prev := prevInChain[ck]; prev != nil && isMerged[prev] {
			j.Deps = append(j.Deps, prev)
		}
		prevInChain[ck] = j
		out = append(out, j)
	}
	return out
}

// mergedPricing sums the members' σ, access streams and grids.
func mergedPricing(g *hostgpu.GPU, members []*sched.Job) (arch.ClassVec, []cachemodel.Access, int, error) {
	var sigma arch.ClassVec
	var accSums []cachemodel.Access
	grid := 0
	for _, m := range members {
		s, accs, err := g.ResolveSigma(m.Launch)
		if err != nil {
			return arch.ClassVec{}, nil, 0, err
		}
		sigma = sigma.Add(s)
		for i, a := range accs {
			if i < len(accSums) {
				accSums[i].Accesses += a.Accesses
				accSums[i].Elems += a.Elems
			} else {
				accSums = append(accSums, a)
			}
		}
		grid += m.Launch.Grid
	}
	return sigma, accSums, grid, nil
}

// beneficial predicts whether merging the group actually saves time, using
// the device's own timing model: the merged launch (grid = Σ grids, σ = Σ σ)
// plus the gather/scatter memory-merge traffic must beat the serialized
// constituents. Merging wins when the per-VP grids undersubscribe the device
// or waste alignment (Fig. 10a); it loses when each launch already saturates
// the device and the D2D traffic is pure overhead — which is how the paper's
// coalescing-unfriendly applications behave. A merge also needs device room
// for its contiguous copy of every member buffer (Fig. 5), so a group whose
// merged footprint exceeds the device's headroom is rejected and its members
// run unmerged.
func beneficial(g *hostgpu.GPU, members []*sched.Job) bool {
	var sumSeconds, d2dBytes float64
	var footprint int64
	for _, m := range members {
		// The trial timing rides the device's launch-signature cache, so the
		// win predictor prices repeated identical launches in O(1).
		_, _, tm, err := g.LaunchTiming(m.Launch)
		if err != nil {
			return false
		}
		sumSeconds += tm.Seconds
		for _, decl := range m.Launch.Kernel.Bufs {
			if ptr, ok := m.Launch.Bindings[decl.Name]; ok {
				if size, err := g.Mem.Size(ptr); err == nil {
					footprint += int64(size)
					d2dBytes += float64(size) // gather
					if !decl.ReadOnly {
						d2dBytes += float64(size) // scatter
					}
				}
			}
		}
	}
	if footprint > g.Mem.Headroom() {
		return false
	}
	sigma, accs, grid, err := mergedPricing(g, members)
	if err != nil {
		return false
	}
	first := members[0].Launch
	mergedShape := profile.LaunchShape{
		Grid:              grid,
		Block:             first.Block,
		SharedMemPerBlock: first.SharedMemPerBlock,
		RegsPerThread:     first.RegsPerThread,
	}
	threads := float64(grid * first.Block)
	mergedTiming := hostgpu.KernelTiming(&g.Arch, mergedShape, sigma.Scale(1/threads), accs)
	mergedSeconds := mergedTiming.Seconds + d2dBytes/(g.Arch.MemBWGBps*1e9)
	return mergedSeconds < sumSeconds
}

// Merge builds the coalesced job for a group of matching kernel jobs. Its
// execution charges, in simulated time, the device-to-device gathers of every
// input chunk into merged contiguous buffers (Fig. 5), one kernel launch over
// grid = Σ grids whose σ is the sum of the constituents', and the scatters of
// the written chunks back. On the host no bytes move: each constituent runs
// in place on its own allocations, which is exactly what the merged kernel
// computes on the GPU. The member jobs are finished with their share of the
// result.
func Merge(g *hostgpu.GPU, members []*sched.Job) *sched.Job {
	first := members[0].Launch
	label := fmt.Sprintf("coalesced %s ×%d", first.Kernel.Name, len(members))
	run := func(mj *sched.Job, gpu *hostgpu.GPU) error {
		err := runMerged(mj, gpu, members) // fills member profiles on success
		for _, m := range members {
			m.Interval = mj.Interval
			m.Finish(err)
		}
		return err
	}
	j := sched.NewCustom(-1, -1, hostgpu.EngineCompute, label, run)
	j.Launch = nil // the merged launch is built at execution time
	return j
}

func runMerged(mj *sched.Job, gpu *hostgpu.GPU, members []*sched.Job) error {
	first := members[0].Launch
	kernel := first.Kernel

	// sizes[i][k] is member i's allocation size for kernel buffer k: the
	// chunk its gather and scatter move.
	sizes := make([][]int, len(members))
	for i, m := range members {
		sizes[i] = make([]int, len(kernel.Bufs))
		for k, decl := range kernel.Bufs {
			ptr, ok := m.Launch.Bindings[decl.Name]
			if !ok {
				return fmt.Errorf("coalesce: %s: vp%d missing buffer %q", kernel.Name, m.VP, decl.Name)
			}
			size, err := gpu.Mem.Size(ptr)
			if err != nil {
				return err
			}
			sizes[i][k] = size
		}
	}

	// Gather: D2D copies of every chunk into the contiguous region.
	stream := -1 - mj.VP
	for i := range members {
		for k := range kernel.Bufs {
			gpu.ChargeD2D(stream, sizes[i][k])
		}
	}

	// Price the merged launch: σ and access streams are the sums of the
	// constituents'.
	sigma, accesses, grid, err := mergedPricing(gpu, members)
	if err != nil {
		return err
	}

	merged := &hostgpu.Launch{
		Kernel:            kernel,
		Prog:              first.Prog,
		Grid:              grid,
		Block:             first.Block,
		SharedMemPerBlock: first.SharedMemPerBlock,
		RegsPerThread:     first.RegsPerThread,
		Params:            first.Params,
		SigmaOverride:     &sigma,
		AccessesOverride:  accesses,
		ExecOverride: func(mem *devmem.Mem) error {
			// Execute each constituent in place on its own allocations,
			// preserving per-VP semantics exactly.
			for _, m := range members {
				env := &kpl.Env{
					NThreads: m.Launch.Threads(),
					Params:   m.Launch.Params,
					Bufs:     map[string]*kpl.Buffer{},
				}
				if env.Params == nil {
					env.Params = map[string]kpl.Value{}
				}
				for _, decl := range kernel.Bufs {
					buf, err := mem.BindBuffer(m.Launch.Bindings[decl.Name], decl.Elem)
					if err != nil {
						return err
					}
					env.Bufs[decl.Name] = buf
				}
				if m.Launch.Native != nil {
					if err := m.Launch.Native(env); err != nil {
						return err
					}
				} else if err := kernel.ExecBlocks(env, nil, m.Launch.Block, gpu.Workers); err != nil {
					return err
				}
			}
			return nil
		},
	}

	prof, iv, err := gpu.Launch(stream, merged)
	if err != nil {
		return err
	}
	mj.Interval = iv
	mj.Profile = prof

	// Scatter: written chunks go back to each VP's allocations.
	totalThreads := float64(merged.Threads())
	for i, m := range members {
		for k, decl := range kernel.Bufs {
			if !decl.ReadOnly {
				gpu.ChargeD2D(stream, sizes[i][k])
			}
		}
		// Each member receives a thread-proportional share of the profile.
		share := float64(m.Launch.Threads()) / totalThreads
		pp := *prof
		pp.Sigma = prof.Sigma.Scale(share)
		pp.Cycles *= share
		pp.ComputeCycles *= share
		pp.DataStallCycles *= share
		pp.OverheadCycles *= share
		pp.CacheAccesses *= share
		pp.CacheMisses *= share
		pp.TimeSec *= share
		pp.EnergyJ *= share
		pp.Shape = profile.LaunchShape{
			Grid:              m.Launch.Grid,
			Block:             m.Launch.Block,
			SharedMemPerBlock: m.Launch.SharedMemPerBlock,
			RegsPerThread:     m.Launch.RegsPerThread,
		}
		m.Profile = &pp
	}
	return nil
}
