package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/kpl"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// replayResult is what the layer replay measured, besides its spans.
type replayResult struct {
	batches       int
	membersMerged int
	threads       int64 // kernel threads executed by Native semantics
	boundBytes    int64
	writtenBytes  int64
	mismatches    int
}

// replayVP is one VP's burst source on the private device.
type replayVP struct {
	id     int
	app    *app
	bufs   map[string]devmem.Ptr
	launch *hostgpu.Launch
}

// replay runs the workload's job mix through the layers the executor calls,
// one burst per VP per batch, on a private hostgpu.GPU: coalesce.Apply,
// sched.Plan and Job.Run, each in its own span, with kpl execution timed
// inside kernel runs. GPU.LaunchTiming and the devmem bind/writeback calls
// happen inside GPU.Launch, where the benchmark cannot reach; they are timed
// as probes repeating the same calls with the same arguments once the
// batch's jobs have run. For a multi-device workload the replay runs the VPs that
// round-robin placement puts on device 0.
func replay(wl *workload, apps []*app, budget time.Duration, tr *tracer) (*replayResult, error) {
	opts := serviceOptions(wl)
	g := hostgpu.New(opts.Arch, opts.MemBytes)
	g.Mode = opts.Mode
	g.InOrderIssue = true
	g.Workers = opts.Workers
	g.Metrics = metrics.New()

	res := &replayResult{}
	var runSpan int32 // the open job-run span, parent of kpl.exec
	var vps []*replayVP
	for i := 0; i < wl.vps; i += wl.devices {
		v := &replayVP{id: i, app: apps[i], bufs: map[string]devmem.Ptr{}}
		for _, decl := range v.app.bench.Kernel.Bufs {
			p, err := g.Mem.Alloc(v.app.w.BufBytes[decl.Name])
			if err != nil {
				return nil, err
			}
			v.bufs[decl.Name] = p
		}
		v.launch = v.app.bench.NewLaunch(v.app.w)
		v.launch.Bindings = v.bufs
		native := v.launch.Native
		v.launch.Native = func(env *kpl.Env) error {
			s := tr.open(spKplExec, runSpan)
			err := native(env)
			tr.close(-1, s)
			res.threads += int64(env.NThreads)
			return err
		}
		vps = append(vps, v)
	}

	deadline := time.Now().Add(budget)
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		bs := tr.open(spBatch, 0)
		var batch []*sched.Job
		var d2h []*sched.Job
		var want [][]byte
		kernelsIn := 0
		for _, v := range vps {
			stream := core.VPStream(v.id, 0)
			set := v.app.sets[n%len(v.app.sets)]
			for _, decl := range v.app.bench.Kernel.Bufs {
				if data, ok := set.in[decl.Name]; ok {
					batch = append(batch, sched.NewH2D(v.id, stream, v.bufs[decl.Name], 0, data))
				}
			}
			kj := sched.NewKernel(v.id, stream, v.launch)
			kj.Coalescable = v.app.bench.Coalescable
			batch = append(batch, kj)
			kernelsIn++
			for _, name := range v.app.w.OutBufs {
				j := sched.NewD2H(v.id, stream, v.bufs[name], 0, v.app.w.BufBytes[name])
				batch = append(batch, j)
				if set.want != nil {
					d2h = append(d2h, j)
					want = append(want, set.want[name])
				}
			}
		}

		s := tr.open(spApply, bs.id)
		if opts.Coalesce {
			batch = coalesce.Apply(g, batch)
		}
		tr.close(-1, s)
		for _, j := range batch {
			if j.Launch != nil {
				kernelsIn--
			}
		}
		res.membersMerged += kernelsIn // launches swallowed into merged jobs

		s = tr.open(spPlan, bs.id)
		order := sched.Plan(batch, opts.Policy)
		tr.close(-1, s)

		for _, j := range order {
			name := uint8(spRunKernel)
			switch {
			case j.Engine == hostgpu.EngineH2D:
				name = spRunH2D
			case j.Engine == hostgpu.EngineD2H:
				name = spRunD2H
			case j.Launch == nil:
				name = spRunMerged
			}
			rs := tr.open(name, bs.id)
			runSpan = rs.id
			err := j.Run(g)
			if !j.Done() {
				j.Finish(err)
			}
			tr.close(-1, rs)
			if j.Err != nil {
				return nil, fmt.Errorf("replay: %s: %w", j.Label, j.Err)
			}
		}
		// Probe every VP's launch, merged or not: a merged run makes the
		// same timing lookups (in its win predictor) and binds and writes
		// back the same bytes, as slices of the merged buffers.
		for _, v := range vps {
			if err := probe(g, v.launch, tr, bs.id, res); err != nil {
				return nil, err
			}
		}
		for i, j := range d2h {
			if !bytes.Equal(j.Data, want[i]) {
				res.mismatches++
			}
		}
		tr.close(-1, bs)
		res.batches++
	}
	return res, nil
}

// probe repeats the calls GPU.Launch makes around kernel execution: the
// timing lookup (warm by now) and, when the device runs kernels
// functionally, binding every buffer and writing the written ones back.
func probe(g *hostgpu.GPU, l *hostgpu.Launch, tr *tracer, parent int32, res *replayResult) error {
	s := tr.open(spLaunchTiming, parent)
	_, _, _, err := g.LaunchTiming(l)
	tr.close(-1, s)
	if err != nil {
		return err
	}
	if g.Mode != hostgpu.ExecFull {
		return nil
	}
	bufs := make([]*kpl.Buffer, len(l.Kernel.Bufs))
	s = tr.open(spBind, parent)
	for i, decl := range l.Kernel.Bufs {
		if bufs[i], err = g.Mem.BindBuffer(l.Bindings[decl.Name], decl.Elem); err != nil {
			return err
		}
	}
	tr.close(-1, s)
	s = tr.open(spWriteback, parent)
	for i, decl := range l.Kernel.Bufs {
		if !decl.ReadOnly {
			if err := g.Mem.WriteBuffer(l.Bindings[decl.Name], bufs[i]); err != nil {
				return err
			}
		}
	}
	tr.close(-1, s)
	for _, decl := range l.Kernel.Bufs {
		size, _ := g.Mem.Size(l.Bindings[decl.Name])
		res.boundBytes += int64(size)
		if !decl.ReadOnly {
			res.writtenBytes += int64(size)
		}
	}
	return nil
}
