package metrics

import "sort"

// The structured job trace: one Event per lifecycle transition of one GPU
// job, stamped with simulated time. It generalizes internal/trace beyond
// Gantt rendering — where a trace.Record is one busy span on one engine, an
// Event stream reconstructs the whole journey of a job through the service
// (queueing, re-scheduling, dispatch, completion), which is what per-kernel
// profiles and dispatch-latency accounting need.

// Event kinds, in lifecycle order.
const (
	EventSubmitted  = "submitted"  // job entered the service queue
	EventScheduled  = "scheduled"  // Re-scheduler planned the job into a batch order
	EventDispatched = "dispatched" // job started on its engine
	EventCompleted  = "completed"  // job finished (Err carries any failure)
	EventCancelled  = "cancelled"  // job orphaned (VP disconnect) and never ran
	EventMigrated   = "migrated"   // VP context moved between devices (no job attached)
)

// kindRank orders kinds by lifecycle stage for sorting.
var kindRank = map[string]int{
	EventSubmitted:  0,
	EventScheduled:  1,
	EventDispatched: 2,
	EventCompleted:  3,
	EventCancelled:  4,
	EventMigrated:   5,
}

// Event is one lifecycle transition of one job. All timestamps are simulated
// seconds (never wall clock — see the package determinism contract).
type Event struct {
	Kind   string  `json:"kind"`
	VP     int     `json:"vp"`
	Stream int     `json:"stream"`
	Engine string  `json:"engine"`
	Label  string  `json:"label"`
	Time   float64 `json:"t"` // when the transition was recorded
	// Start/End carry the job's simulated execution interval on completed
	// events.
	Start float64 `json:"start,omitempty"`
	End   float64 `json:"end,omitempty"`
	Err   string  `json:"err,omitempty"`
}

// less orders events by their full field tuple, so a sorted event list is a
// canonical multiset representation: any insertion interleaving of the same
// events sorts to the same sequence.
func (e Event) less(o Event) bool {
	if e.Time != o.Time {
		return e.Time < o.Time
	}
	if e.VP != o.VP {
		return e.VP < o.VP
	}
	if e.Stream != o.Stream {
		return e.Stream < o.Stream
	}
	if kindRank[e.Kind] != kindRank[o.Kind] {
		return kindRank[e.Kind] < kindRank[o.Kind]
	}
	if e.Engine != o.Engine {
		return e.Engine < o.Engine
	}
	if e.Label != o.Label {
		return e.Label < o.Label
	}
	if e.Start != o.Start {
		return e.Start < o.Start
	}
	if e.End != o.End {
		return e.End < o.End
	}
	return e.Err < o.Err
}

// eventChunk is the capacity of one event-log chunk. The log grows a chunk
// at a time, so logging an event never copies the events before it.
const eventChunk = 1024

// Event appends one event to the trace.
func (r *Registry) Event(e Event) {
	if r == nil {
		return
	}
	r.evMu.Lock()
	n := len(r.events)
	if n == 0 || len(r.events[n-1]) == eventChunk {
		r.events = append(r.events, make([]Event, 0, eventChunk))
		n++
	}
	r.events[n-1] = append(r.events[n-1], e)
	r.evMu.Unlock()
}

// Events returns a sorted copy of the job trace (canonical order, see
// Event.less), or nil when no event was logged.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	r.evMu.Lock()
	total := 0
	for _, c := range r.events {
		total += len(c)
	}
	var out []Event
	if total > 0 {
		out = make([]Event, 0, total)
		for _, c := range r.events {
			out = append(out, c...)
		}
	}
	r.evMu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}
