package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("a.calls")
	c.Inc()
	c.Add(4)
	if got := r.Counter("a.calls").Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("a.depth")
	g.Add(3)
	g.Sub(1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge after Set = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 99, 1000} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %d", len(snap.Histograms))
	}
	hs := snap.Histograms[0]
	want := []int64{2, 2, 1} // (<=1): 0.5,1; (<=10): 5,10; (<=100): 99
	for i, b := range hs.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket le=%g count = %d, want %d", b.LE, b.Count, want[i])
		}
	}
	if hs.Overflow != 1 {
		t.Errorf("overflow = %d, want 1", hs.Overflow)
	}
	if hs.Count != 6 {
		t.Errorf("count = %d, want 6", hs.Count)
	}
	if hs.Sum != 1115.5 {
		t.Errorf("sum = %g, want 1115.5", hs.Sum)
	}
	// Second registration reuses the instrument; first bounds win.
	if h2 := r.Histogram("lat", []float64{5}); h2 != h {
		t.Error("re-registration returned a different histogram")
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Add(2)
	r.Histogram("z", CountBuckets).Observe(3)
	r.Event(Event{Kind: EventSubmitted})
	if ev := r.Events(); ev != nil {
		t.Errorf("nil registry events = %v", ev)
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms)+len(s.Events) != 0 {
		t.Errorf("nil registry snapshot not empty: %+v", s)
	}
	r.Reset()
}

func TestSnapshotSortedAndMarshalable(t *testing.T) {
	r := New()
	r.Counter("z.last").Inc()
	r.Counter("a.first").Add(2)
	r.Gauge("m.mid").Set(-4)
	r.Histogram("h.one", []float64{1, 2}).Observe(1.5)
	r.Event(Event{Kind: EventCompleted, VP: 1, Stream: 9, Engine: "compute", Label: "k", Time: 2})
	r.Event(Event{Kind: EventSubmitted, VP: 1, Stream: 9, Engine: "compute", Label: "k", Time: 1})

	s := r.Snapshot()
	if s.Counters[0].Name != "a.first" || s.Counters[1].Name != "z.last" {
		t.Errorf("counters not sorted: %+v", s.Counters)
	}
	if s.Events[0].Kind != EventSubmitted {
		t.Errorf("events not time-sorted: %+v", s.Events)
	}
	raw, err := s.JSON()
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(back.Counters) != 2 || len(back.Events) != 2 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestEventCanonicalOrder(t *testing.T) {
	// Same multiset inserted in two different orders must sort identically.
	evs := []Event{
		{Kind: EventDispatched, VP: 0, Stream: 0, Label: "b", Time: 1},
		{Kind: EventSubmitted, VP: 0, Stream: 0, Label: "b", Time: 1},
		{Kind: EventSubmitted, VP: 0, Stream: 0, Label: "a", Time: 1},
		{Kind: EventSubmitted, VP: 1, Stream: 0, Label: "a", Time: 0},
	}
	a, b := New(), New()
	for _, e := range evs {
		a.Event(e)
	}
	for i := len(evs) - 1; i >= 0; i-- {
		b.Event(evs[i])
	}
	ja, _ := a.Snapshot().JSON()
	jb, _ := b.Snapshot().JSON()
	if !bytes.Equal(ja, jb) {
		t.Fatalf("event order not canonical:\n%s\nvs\n%s", ja, jb)
	}
	got := a.Events()
	if got[0].VP != 1 { // Time 0 first
		t.Errorf("sort by time broken: %+v", got[0])
	}
	if got[1].Label != "a" || got[2].Label != "b" || got[3].Kind != EventDispatched {
		t.Errorf("full-tuple sort broken: %+v", got)
	}
}

func TestReset(t *testing.T) {
	r := New()
	r.Counter("c").Inc()
	r.Event(Event{Kind: EventSubmitted})
	r.Reset()
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Events) != 0 {
		t.Fatalf("Reset left data: %+v", s)
	}
	r.Counter("c").Inc() // still usable
	if r.Counter("c").Value() != 1 {
		t.Error("registry unusable after Reset")
	}
}

// TestEventLogChunks: an event log spanning several chunks, filled from
// several goroutines, returns exactly what one flat slice sorted into the
// canonical order would, in Events and in the Snapshot JSON; Reset empties
// it, and empty or nil registries return nil.
func TestEventLogChunks(t *testing.T) {
	const workers = 4
	perWorker := (2*eventChunk + eventChunk/2) / workers
	ev := func(w, i int) Event {
		return Event{
			Kind: EventCompleted, VP: w, Stream: i % 5, Engine: "compute",
			Label: "k" + strconv.Itoa(i%3), Time: float64(i % 97), Start: float64(i), End: float64(i) + 0.5,
		}
	}
	var flat []Event
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			flat = append(flat, ev(w, i))
		}
	}
	sort.SliceStable(flat, func(i, j int) bool { return flat[i].less(flat[j]) })

	r := New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Event(ev(w, i))
			}
		}(w)
	}
	wg.Wait()
	if len(flat) <= 2*eventChunk {
		t.Fatalf("%d events fit in two chunks of %d", len(flat), eventChunk)
	}
	got := r.Events()
	if !reflect.DeepEqual(got, flat) {
		t.Fatal("Events differs from the flat-slice reference")
	}
	if cap(got) != len(flat) {
		t.Errorf("Events capacity %d, want exactly %d", cap(got), len(flat))
	}
	gotJSON, err := r.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := Snapshot{Events: flat}.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("Snapshot JSON differs from the flat-slice reference")
	}

	r.Reset()
	if evs := r.Events(); evs != nil {
		t.Fatalf("Events after Reset = %d events, want nil", len(evs))
	}
	r.Event(ev(0, 1))
	if evs := r.Events(); len(evs) != 1 || evs[0] != ev(0, 1) {
		t.Fatalf("Events after Reset and one event = %+v", evs)
	}
	if New().Events() != nil {
		t.Error("empty registry: Events() != nil")
	}
	if (*Registry)(nil).Events() != nil {
		t.Error("nil registry: Events() != nil")
	}
}
