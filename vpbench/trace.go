package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ipc"
)

// Span names. Live spans nest cycle → cudart call → ipc call → core handle;
// replay spans nest replay.batch → {coalesce.Apply, sched.Plan, job runs,
// probes} and job run → kpl.exec.
const (
	spCycle = iota
	spH2D
	spLaunch
	spD2H
	spIPC
	spHandle
	spBatch
	spApply
	spPlan
	spRunH2D
	spRunD2H
	spRunKernel
	spRunMerged
	spKplExec
	spLaunchTiming
	spBind
	spWriteback
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"cycle", "cudart.h2d", "cudart.launch", "cudart.d2h", "ipc.call", "core.handle",
	"replay.batch", "coalesce.Apply", "sched.Plan", "job.run.h2d", "job.run.d2h",
	"job.run.kernel", "job.run.merged", "kpl.exec", "hostgpu.LaunchTiming",
	"devmem.bind", "devmem.writeback",
}

// span is one recorded interval. Times are nanoseconds since the tracer's
// epoch; parent 0 means a root span. Spans of one cycle share the cycle's
// span as their root.
type span struct {
	start, end int64
	id, parent int32
	name       uint8
	vp         int16
}

// tracer keeps spans in memory, one buffer per VP so guest goroutines never
// contend; they are written out once the run ends. Untraced runs have no
// tracer and pay no tracing cost.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int32
	vps    []*vpSpans
}

type vpSpans struct {
	mu    sync.Mutex // the server's handler goroutine appends too
	spans []span
	// ipcCall is the VP's open ipc.call span: a VP has at most one call in
	// flight, so the handler span it causes takes this as its parent.
	ipcCall atomic.Int32
}

func newTracer(vps int) *tracer {
	t := &tracer{epoch: time.Now(), vps: make([]*vpSpans, vps+1)}
	for i := range t.vps {
		t.vps[i] = &vpSpans{}
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() int32 { return t.nextID.Add(1) }

// record appends a finished span to the VP's buffer; vp -1 is the replay.
func (t *tracer) record(vp int, s span) {
	b := t.vps[vp+1]
	s.vp = int16(vp)
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// open starts a span, returning it for close.
func (t *tracer) open(name uint8, parent int32) span {
	return span{start: t.now(), id: t.newID(), parent: parent, name: name}
}

func (t *tracer) close(vp int, s span) {
	s.end = t.now()
	t.record(vp, s)
}

func (t *tracer) all() []span {
	var out []span
	for _, b := range t.vps {
		b.mu.Lock()
		out = append(out, b.spans...)
		b.mu.Unlock()
	}
	return out
}

// spanStats is the per-name view of a set of spans: durations, and self
// times — a span's duration minus the part of it its children cover.
type spanStats struct {
	dur, self [numSpanNames][]float64 // nanoseconds
}

func summarize(spans []span) *spanStats {
	// Span ids are dense (1..n), so a slice indexes them.
	var maxID int32
	for _, s := range spans {
		maxID = max(maxID, s.id)
	}
	pos := make([]int32, maxID+1)
	for i := range pos {
		pos[i] = -1
	}
	for i, s := range spans {
		pos[s.id] = int32(i)
	}
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent == 0 || pos[s.parent] < 0 {
			continue
		}
		p := spans[pos[s.parent]]
		// Children of one span never overlap (a VP's calls are synchronous
		// and the replay is single-threaded), so clipped child durations
		// sum to the covered part.
		lo, hi := max(s.start, p.start), min(s.end, p.end)
		if hi > lo {
			covered[pos[s.parent]] += hi - lo
		}
	}
	st := &spanStats{}
	for i, s := range spans {
		d := s.end - s.start
		st.dur[s.name] = append(st.dur[s.name], float64(d))
		st.self[s.name] = append(st.self[s.name], float64(d-covered[i]))
	}
	return st
}

// writeSpans stores every span as gzip-compressed CSV.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(zw)
	sort.Slice(spans, func(i, j int) bool { return spans[i].id < spans[j].id })
	fmt.Fprintln(w, "id,parent,name,vp,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", s.id, s.parent, spanNames[s.name], s.vp, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// --- ipc wrappers ---

// tracedClient times each ipc.Client call as an ipc.call span.
type tracedClient struct {
	inner ipc.Client
	vp    int
	tr    *tracer
	// parent is the open cudart span of the VP; the guest goroutine is the
	// only caller, so no synchronisation is needed.
	parent *int32
}

func (c *tracedClient) begin() span {
	s := c.tr.open(spIPC, *c.parent)
	c.tr.vps[c.vp+1].ipcCall.Store(s.id)
	return s
}

func (c *tracedClient) Call(req any) (any, error) {
	s := c.begin()
	defer c.tr.close(c.vp, s)
	return c.inner.Call(req)
}

func (c *tracedClient) Close() error { return c.inner.Close() }

// tracedTypedClient keeps the binary codec's typed fast path visible to
// cudart, so the traced run takes the same code path as the untraced one.
type tracedTypedClient struct {
	tracedClient
	tc ipc.TypedCaller
}

func (c *tracedTypedClient) CallH2D(r ipc.H2DReq) (ipc.OKResp, error) {
	s := c.begin()
	defer c.tr.close(c.vp, s)
	return c.tc.CallH2D(r)
}

func (c *tracedTypedClient) CallD2H(r ipc.D2HReq) (ipc.D2HResp, error) {
	s := c.begin()
	defer c.tr.close(c.vp, s)
	return c.tc.CallD2H(r)
}

func (c *tracedTypedClient) CallMemset(r ipc.MemsetReq) (ipc.OKResp, error) {
	s := c.begin()
	defer c.tr.close(c.vp, s)
	return c.tc.CallMemset(r)
}

func (c *tracedTypedClient) CallLaunch(r ipc.LaunchReq) (ipc.OKResp, error) {
	s := c.begin()
	defer c.tr.close(c.vp, s)
	return c.tc.CallLaunch(r)
}

func traceClient(c ipc.Client, vp int, tr *tracer, parent *int32) ipc.Client {
	base := tracedClient{inner: c, vp: vp, tr: tr, parent: parent}
	if tc, ok := c.(ipc.TypedCaller); ok {
		return &tracedTypedClient{tracedClient: base, tc: tc}
	}
	return &base
}

// traceHandler times the service's request handling as a core.handle span,
// parented to the VP's open ipc.call span.
func traceHandler(h ipc.Handler, tr *tracer) ipc.Handler {
	return func(vp int, req any) any {
		s := tr.open(spHandle, tr.vps[vp+1].ipcCall.Load())
		resp := h(vp, req)
		tr.close(vp, s)
		return resp
	}
}

// connCounter counts the server side's socket reads, writes and bytes.
type connCounter struct {
	reads, writes, bytes atomic.Int64
}

type countingListener struct {
	net.Listener
	c *connCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *connCounter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}
