package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/cudart"
	"repro/internal/devmem"
	"repro/internal/hostgpu"
	"repro/internal/ipc"
	"repro/internal/kernels"
	"repro/internal/kpl"
)

// workload is one closed-loop VP fleet. Every VP runs cycles back to back
// with no think time; a cycle is one H2D → launch → D2H iteration.
type workload struct {
	name    string
	vps     int
	devices int  // 1 serves from a core.Service, more from a core.MultiService
	remote  bool // one loopback TCP connection per VP (binary codec)
	mode    hostgpu.ExecMode
	// cyclesPerVP is the measured work of one round; a run repeats rounds
	// until its time is up, so the live heap and the setup time are taken
	// at a fixed amount of work however fast the host is.
	cyclesPerVP int
	apps        func(rng *rand.Rand, vps int) ([]*app, error)
}

// warmupCycles are run by every VP before measurement: they compile the
// kernel, fill the timing cache and fault in device memory.
const warmupCycles = 2

// The workloads stress different layers; each comment says which it
// exercises and which it bypasses.
var workloads = []*workload{
	// Every VP runs the same coalescable kernel, so most of the cost is the
	// coalesce gather/scatter, devmem bind and BufferFromBytes, and kpl
	// execution. There is no transport: the VPs call the service through
	// in-process pipes. Each cycle is 2 H2D, 1 launch and 1 D2H of 64 KiB.
	{
		name: "fleet-coalesce", vps: 16, devices: 1, mode: hostgpu.ExecFull,
		cyclesPerVP: 100,
		apps: func(rng *rand.Rand, vps int) ([]*app, error) {
			return vectorAddApps(rng, vps, 16384)
		},
	},
	// Payloads 16× smaller than fleet-coalesce, over the sigmavpd serving
	// path (ipc.ServeWithHooks, one loopback TCP connection per VP, binary
	// codec): fixed per-call costs dominate — framing, syscalls, the server
	// worker handoff, Handle and kernel-signature hashing. kpl, devmem and
	// coalesce do little.
	{
		name: "remote-small", vps: 2, devices: 1, remote: true, mode: hostgpu.ExecFull,
		cyclesPerVP: 2000,
		apps: func(rng *rand.Rand, vps int) ([]*app, error) {
			return vectorAddApps(rng, vps, 1024)
		},
	},
	// Nothing runs functionally, so the cost is all per-job bookkeeping:
	// LaunchTiming keys, coalesce.Key hashing, sched.Plan, metrics events and
	// two device executors side by side. kpl and devmem bind do no work. The
	// only workload with more than one device.
	{
		name: "farm-timing", vps: 16, devices: 2, mode: hostgpu.ExecTimingOnly,
		cyclesPerVP: 1000,
		apps:        farmApps,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// app is what one VP runs every cycle: H2D of each input, one launch, D2H
// of each output. sets holds seeded inputs the cycles alternate between, so
// an H2D that never lands shows up as the previous cycle's result.
type app struct {
	bench *kernels.Benchmark
	w     *kernels.Workload
	sets  []inputSet
}

type inputSet struct {
	in   map[string][]byte
	want map[string][]byte // nil in timing-only mode: no bytes come back
}

const inputSets = 2

// seededBytes fills a buffer of the given element type with values in
// [0.25, 1.25) (or small integers), positive so every kernel in the mix is
// well defined on them.
func seededBytes(rng *rand.Rand, t kpl.Type, n int) []byte {
	switch t {
	case kpl.F32:
		v := make([]float32, n/4)
		for i := range v {
			v[i] = 0.25 + rng.Float32()
		}
		return devmem.EncodeF32(v)
	case kpl.F64:
		v := make([]float64, n/8)
		for i := range v {
			v[i] = 0.25 + rng.Float64()
		}
		return devmem.EncodeF64(v)
	default:
		v := make([]int32, n/4)
		for i := range v {
			v[i] = rng.Int31n(1000)
		}
		return devmem.EncodeI32(v)
	}
}

// newApp seeds inputSets input sets for a workload shape; with expect set
// it also computes each set's outputs with the kernel's Native semantics.
func newApp(rng *rand.Rand, b *kernels.Benchmark, w *kernels.Workload, expect bool) (*app, error) {
	a := &app{bench: b, w: w}
	for s := 0; s < inputSets; s++ {
		set := inputSet{in: map[string][]byte{}}
		for _, decl := range b.Kernel.Bufs {
			if _, ok := w.Inputs[decl.Name]; ok {
				set.in[decl.Name] = seededBytes(rng, decl.Elem, w.BufBytes[decl.Name])
			}
		}
		if expect {
			ws := *w
			ws.Inputs = set.in
			env, err := kernels.BuildEnv(b, &ws)
			if err != nil {
				return nil, err
			}
			if err := b.Native(env); err != nil {
				return nil, err
			}
			set.want = map[string][]byte{}
			for _, name := range w.OutBufs {
				out := make([]byte, w.BufBytes[name])
				devmem.BufferToBytes(env.Bufs[name], out)
				set.want[name] = out
			}
		}
		a.sets = append(a.sets, set)
	}
	return a, nil
}

// vectorAddApps gives every VP vectorAdd at n elements with its own inputs.
func vectorAddApps(rng *rand.Rand, vps, n int) ([]*app, error) {
	b, err := kernels.Get("vectorAdd")
	if err != nil {
		return nil, err
	}
	w := &kernels.Workload{
		Grid: (n + 511) / 512, Block: 512, N: n,
		Params:   map[string]kpl.Value{"n": kpl.IntVal(int64(n))},
		BufBytes: map[string]int{"a": 4 * n, "b": 4 * n, "out": 4 * n},
		Inputs:   map[string][]byte{"a": nil, "b": nil},
		OutBufs:  []string{"out"},
	}
	apps := make([]*app, vps)
	for i := range apps {
		if apps[i], err = newApp(rng, b, w, true); err != nil {
			return nil, err
		}
	}
	return apps, nil
}

// farmMix is the mixed workload of the multi-GPU scaling study (BENCH_7):
// VP i runs farmMix[i % 5] at farmScale.
var farmMix = []string{"vectorAdd", "BlackScholes", "scalarProd", "reduction", "matrixMul"}

const farmScale = 8

// farmApps shares one seeded input set per application among its VPs:
// nothing runs functionally, so the bytes only have to have the right size.
func farmApps(rng *rand.Rand, vps int) ([]*app, error) {
	byName := map[string]*app{}
	for _, name := range farmMix {
		b, err := kernels.Get(name)
		if err != nil {
			return nil, err
		}
		if byName[name], err = newApp(rng, b, b.MakeWorkload(farmScale), false); err != nil {
			return nil, err
		}
	}
	apps := make([]*app, vps)
	for i := range apps {
		apps[i] = byName[farmMix[i%len(farmMix)]]
	}
	return apps, nil
}

// --- one round: build the serving stack, run the fleet, tear it down ---

// roundOpts are the knobs a round takes besides the workload.
type roundOpts struct {
	cyclesPerVP int
	tr          *tracer // nil: untraced
	// wrapHandler, when set, wraps the service's request handler; tests use
	// it to corrupt responses and prove the output checks run.
	wrapHandler func(ipc.Handler) ipc.Handler
}

// roundResult is what one round measured.
type roundResult struct {
	setup     float64 // seconds from service construction until every VP finished warm-up
	window    float64 // seconds of the measured phase
	cycles    int     // measured cycles (started inside the window)
	allCycles int     // every cycle, warm-up included
	p50, p99  float64 // cycle latency in ms; the samples are not kept, so
	// they do not count in the next round's live heap
	attempted  int64
	failed     int64
	checks     []string // failed output checks
	heapLive   uint64   // bytes live after a forced GC at the end of the window
	cpu        float64  // process CPU seconds during the window
	steal      float64  // share of the VM's CPU time the host took during the window
	allocBytes uint64   // allocated during the window
	gcs        uint64   // GC cycles during the window
	layer      *liveLayers
}

// liveLayers holds what a traced round reads from the serving stack's
// public registries and the server's socket counters.
type liveLayers struct {
	counters            map[string]int64
	batches, singletons int64
	reorderSum          float64
	reorderCount        int64
	events              int
	makespan            float64
	wall                float64
	launches            int64
	calls               int64
	// server socket reads, writes and bytes (zero on pipes)
	reads, writes, wire int64
}

type vpRun struct {
	id      int
	ctx     *cudart.Context
	app     *app
	launch  *hostgpu.Launch
	bufs    map[string]devmem.Ptr
	clock   endClock
	cudartP int32 // open cudart span, read by the traced ipc client
	starts  []int64
	ends    []int64
	att     int64
	failed  int64
	// mismatches counts D2H results that differ from the expected bytes.
	mismatches int64
}

// endClock receives every synchronous operation's simulated completion time
// and counts decreases: a VP's returned End must never go backwards.
type endClock struct {
	last      float64
	decreases int
}

func (c *endClock) SyncTo(t float64) {
	if t < c.last {
		c.decreases++
	}
	c.last = t
}

// endpoint is what a round needs of core.Service and core.MultiService.
type endpoint interface {
	ipc.Endpoint
	UnregisterVP(id int)
	Close()
}

// stack is the serving path under test for one round.
type stack struct {
	ep   endpoint
	devs []*core.Service
	srv  *ipc.Server
	addr string
	conn connCounter
}

func (s *stack) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	s.ep.Close()
}

func serviceOptions(wl *workload) core.Options {
	opts := core.DefaultOptions()
	opts.Mode = wl.mode
	opts.Workers = 1
	return opts
}

// handler is the service's request handler as this round wraps it.
func (s *stack) handler(ro roundOpts) ipc.Handler {
	h := s.ep.Handle
	if ro.tr != nil {
		h = traceHandler(h, ro.tr)
	}
	if ro.wrapHandler != nil {
		h = ro.wrapHandler(h)
	}
	return h
}

func newStack(wl *workload, ro roundOpts) (*stack, error) {
	st := &stack{}
	opts := serviceOptions(wl)
	if wl.devices > 1 {
		gpus := make([]arch.GPU, wl.devices)
		for i := range gpus {
			gpus[i] = arch.Quadro4000()
		}
		m, err := core.NewMultiServicePlaced(opts, gpus, core.PlaceRoundRobin)
		if err != nil {
			return nil, err
		}
		st.ep = m
		for i := 0; i < m.Devices(); i++ {
			st.devs = append(st.devs, m.Device(i))
		}
	} else {
		svc := core.NewService(opts)
		st.ep, st.devs = svc, []*core.Service{svc}
	}
	if !wl.remote {
		return st, nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	var ln net.Listener = l
	if ro.tr != nil {
		ln = countingListener{Listener: l, c: &st.conn}
	}
	st.srv = ipc.ServeWithHooks(ln, st.handler(ro), st.ep.RegisterVP, st.ep.DisconnectVP)
	st.addr = l.Addr().String()
	return st, nil
}

// connect gives a VP its cudart context over the workload's transport.
func (s *stack) connect(wl *workload, ro roundOpts, v *vpRun) error {
	var c ipc.Client
	if wl.remote {
		var err error
		c, err = ipc.DialWithOptions(s.addr, v.id, ipc.DialOptions{Codec: ipc.CodecBinary})
		if err != nil {
			return err
		}
	} else {
		c = ipc.Pipe(v.id, s.handler(ro))
	}
	if ro.tr != nil {
		c = traceClient(c, v.id, ro.tr, &v.cudartP)
	}
	v.ctx = cudart.NewContext(v.id, cudart.NewRemoteBackend(c))
	v.ctx.AttachClock(&v.clock)
	return nil
}

// done leaves the fleet, so VP Control stops waiting for this VP: a TCP VP
// hangs up (the server's disconnect hook unregisters it), a pipe VP
// unregisters itself.
func (s *stack) done(wl *workload, v *vpRun) {
	if wl.remote {
		v.ctx.Close()
	} else {
		s.ep.UnregisterVP(v.id)
	}
}

func (v *vpRun) alloc() error {
	v.bufs = map[string]devmem.Ptr{}
	for _, decl := range v.app.bench.Kernel.Bufs {
		v.att++
		p, err := v.ctx.Malloc(v.app.w.BufBytes[decl.Name])
		if err != nil {
			v.failed++
			return err
		}
		v.bufs[decl.Name] = p
	}
	v.launch = v.app.bench.NewLaunch(v.app.w)
	v.launch.Bindings = v.bufs
	return nil
}

// call runs one cudart call, inside a span when traced.
func (v *vpRun) call(tr *tracer, name uint8, parent int32, f func() error) error {
	v.att++
	var s span
	if tr != nil {
		s = tr.open(name, parent)
		v.cudartP = s.id
	}
	err := f()
	if tr != nil {
		tr.close(v.id, s)
	}
	if err != nil {
		v.failed++
	}
	return err
}

// cycle is one H2D → launch → D2H iteration; D2H results are compared
// against the Native semantics of the inputs just sent.
func (v *vpRun) cycle(tr *tracer, n int) {
	var cs span
	if tr != nil {
		cs = tr.open(spCycle, 0)
		defer tr.close(v.id, cs)
	}
	set := v.app.sets[n%len(v.app.sets)]
	for _, decl := range v.app.bench.Kernel.Bufs {
		data, ok := set.in[decl.Name]
		if !ok {
			continue
		}
		ptr := v.bufs[decl.Name]
		if v.call(tr, spH2D, cs.id, func() error { return v.ctx.MemcpyH2D(ptr, data) }) != nil {
			return
		}
	}
	if v.call(tr, spLaunch, cs.id, func() error { return v.ctx.LaunchKernel(v.launch) }) != nil {
		return
	}
	for _, name := range v.app.w.OutBufs {
		var got []byte
		ptr, n := v.bufs[name], v.app.w.BufBytes[name]
		err := v.call(tr, spD2H, cs.id, func() (err error) {
			got, err = v.ctx.MemcpyD2H(ptr, n)
			return err
		})
		if err == nil && set.want != nil && !bytes.Equal(got, set.want[name]) {
			v.mismatches++
			v.failed++
		}
	}
}

// jobsPerCycle is the number of device jobs (copies and launches) one cycle
// of the app submits.
func (a *app) jobsPerCycle() int { return len(a.sets[0].in) + 1 + len(a.w.OutBufs) }

var heapMetrics = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}

// cpuSeconds is the process's user and system CPU time. Unlike wall time it
// leaves out time spent waiting for a CPU, the host's steal included.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// hostCPU returns the CPU time the hypervisor took from this VM's CPUs and
// the total CPU time, in clock ticks (zeros where /proc/stat is missing).
func hostCPU() (steal, total int64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func readAlloc() (alloc, gcs uint64) {
	s := append([]metrics.Sample(nil), heapMetrics...)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// runRound builds the stack, runs every VP's warm-up and measured cycles,
// then checks the outputs and reads the live heap before teardown.
func runRound(wl *workload, apps []*app, ro roundOpts) (*roundResult, error) {
	t0 := time.Now()
	st, err := newStack(wl, ro)
	if err != nil {
		return nil, err
	}
	defer st.close()

	if !wl.remote {
		// Register in VP order, as the TCP hello would for VPs dialing one
		// after another: round-robin placement then puts VP i on device
		// i % devices in every round, not wherever the goroutines race to.
		for i := 0; i < wl.vps; i++ {
			st.ep.RegisterVP(i)
		}
	}
	vps := make([]*vpRun, wl.vps)
	var (
		warm        atomic.Int32
		windowStart time.Time
		alloc0, gc0 uint64
		cpu0        float64
		st0, tot0   int64
		wg          sync.WaitGroup
		errMu       sync.Mutex
		firstErr    error
	)
	total := warmupCycles + ro.cyclesPerVP
	for i := range vps {
		v := &vpRun{id: i, app: apps[i], starts: make([]int64, 0, ro.cyclesPerVP), ends: make([]int64, 0, ro.cyclesPerVP)}
		vps[i] = v
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := st.connect(wl, ro, v)
			if err == nil {
				err = v.alloc()
			}
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("vp %d: %w", v.id, err)
				}
				errMu.Unlock()
			}
			for c := 0; err == nil && c < total; c++ {
				if c == warmupCycles && int(warm.Add(1)) == wl.vps {
					// The last VP to finish warm-up opens the window.
					windowStart = time.Now()
					alloc0, gc0 = readAlloc()
					cpu0 = cpuSeconds()
					st0, tot0 = hostCPU()
				}
				start := time.Since(t0)
				v.cycle(ro.tr, c)
				if c >= warmupCycles {
					v.starts = append(v.starts, int64(start))
					v.ends = append(v.ends, int64(time.Since(t0)))
				}
			}
			if v.ctx != nil {
				st.done(wl, v)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	end := time.Now()
	alloc1, gc1 := readAlloc()
	st1, tot1 := hostCPU()
	res := &roundResult{
		setup:      windowStart.Sub(t0).Seconds(),
		window:     end.Sub(windowStart).Seconds(),
		cpu:        cpuSeconds() - cpu0,
		steal:      ratio(st1-st0, tot1-tot0),
		allocBytes: alloc1 - alloc0,
		gcs:        gc1 - gc0,
	}
	ws := int64(windowStart.Sub(t0))
	var lat []float64
	for _, v := range vps {
		for k, s := range v.starts {
			if s >= ws {
				lat = append(lat, float64(v.ends[k]-s)/1e6)
			}
		}
		res.allCycles += total
		res.attempted += v.att
		res.failed += v.failed
		if v.mismatches > 0 {
			res.checks = append(res.checks, fmt.Sprintf("vp %d: %d D2H results differ from the Native semantics", v.id, v.mismatches))
		}
		if v.clock.decreases > 0 {
			res.checks = append(res.checks, fmt.Sprintf("vp %d: simulated End decreased %d times", v.id, v.clock.decreases))
			res.failed += int64(v.clock.decreases)
		}
	}
	sort.Float64s(lat)
	res.cycles, res.p50, res.p99 = len(lat), percentile(lat, 0.50), percentile(lat, 0.99)
	if wl.mode == hostgpu.ExecTimingOnly {
		res.checks = append(res.checks, st.checkJobCounts(vps, total)...)
	}
	if len(res.checks) > 0 && res.failed == 0 {
		res.failed = int64(len(res.checks))
	}
	if ro.tr != nil {
		res.layer = st.readLayers(vps, end.Sub(t0).Seconds())
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapLive = ms.HeapAlloc
	runtime.KeepAlive(st)
	runtime.KeepAlive(vps)
	return res, nil
}

// sumCounter adds a counter over every device's service registry.
func sumCounter(devs []*core.Service, name string) int64 {
	var n int64
	for _, d := range devs {
		n += d.Metrics().Counter(name).Value()
	}
	return n
}

// checkJobCounts is the timing-only output check: every job the guests
// submitted completed, none failed, and the count is the one the fleet
// should have produced.
func (s *stack) checkJobCounts(vps []*vpRun, cycles int) []string {
	var want int64
	for _, v := range vps {
		want += int64(v.app.jobsPerCycle() * cycles)
	}
	for _, d := range s.devs {
		d.Drain()
	}
	sub := sumCounter(s.devs, "core.jobs_submitted")
	done := sumCounter(s.devs, "core.jobs_completed")
	failed := sumCounter(s.devs, "core.jobs_failed")
	var out []string
	if sub != want || done != want {
		out = append(out, fmt.Sprintf("core.jobs_submitted=%d core.jobs_completed=%d, want %d", sub, done, want))
	}
	if failed != 0 {
		out = append(out, fmt.Sprintf("core.jobs_failed=%d", failed))
	}
	return out
}

var liveCounters = []string{
	"sched.jobs_pushed", "sched.batches_planned", "coalesce.jobs_merged",
	"coalesce.matches", "coalesce.wins", "hostgpu.timing_cache.hits",
	"hostgpu.timing_cache.misses",
}

// readLayers reads the round's registries: the simulated-work registry of
// every device and the executors' wall-clock registry.
func (s *stack) readLayers(vps []*vpRun, wall float64) *liveLayers {
	l := &liveLayers{counters: map[string]int64{}, wall: wall}
	for _, name := range liveCounters {
		l.counters[name] = sumCounter(s.devs, name)
	}
	for _, d := range s.devs {
		l.counters["core.exec.stall_wait_ns"] += d.ExecMetrics().Counter("core.exec.stall_wait_ns").Value()
		snap := d.Snapshot()
		l.events += len(snap.Events)
		for _, h := range snap.Histograms {
			switch h.Name {
			case "sched.batch_size":
				l.batches += h.Count
				for _, b := range h.Buckets {
					if b.LE <= 1 {
						l.singletons += b.Count
					}
				}
			case "sched.reorder_distance":
				l.reorderSum += h.Sum
				l.reorderCount += h.Count
			}
		}
		l.makespan = max(l.makespan, d.Sync())
	}
	for _, v := range vps {
		l.calls += v.att
		l.launches += int64(warmupCycles + len(v.starts)) // one launch per cycle
	}
	l.reads, l.writes, l.wire = s.conn.reads.Load(), s.conn.writes.Load(), s.conn.bytes.Load()
	return l
}

// add accumulates another round's figures.
func (l *liveLayers) add(o *liveLayers) {
	for k, v := range o.counters {
		l.counters[k] += v
	}
	l.batches += o.batches
	l.singletons += o.singletons
	l.reorderSum += o.reorderSum
	l.reorderCount += o.reorderCount
	l.events += o.events
	l.makespan += o.makespan
	l.wall += o.wall
	l.launches += o.launches
	l.calls += o.calls
	l.reads += o.reads
	l.writes += o.writes
	l.wire += o.wire
}

// percentile returns the q-quantile (0..1) of sorted values, nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
