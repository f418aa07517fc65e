package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"perfeng/internal/probe"
)

// Event tracing in the spirit of VAMPIR/Score-P: every communication call
// records an interval per rank; the analyzer computes Scalasca-style
// wait-state diagnostics (late sender, synchronization share) from the
// merged timeline.

// EventKind labels a traced interval.
type EventKind int

// Event kinds.
const (
	EvSend EventKind = iota
	EvRecv
	EvBarrier
	EvBcast
	EvReduce
	EvCompute
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	return [...]string{"send", "recv", "barrier", "bcast", "reduce", "compute"}[k]
}

// Event is one traced interval on one rank.
type Event struct {
	Rank  int // the rank that recorded the event
	Kind  EventKind
	Peer  int // peer rank, -1 for collectives
	Bytes int
	Start time.Time
	End   time.Time
}

// Duration returns the interval length.
func (e Event) Duration() time.Duration { return e.End.Sub(e.Start) }

// Tracer collects per-rank event streams.
type Tracer struct {
	mu     sync.Mutex
	events [][]Event
	epoch  time.Time
	// Events receives every recorded event, outside the tracer's lock,
	// so a sink may query the tracer. Ranks emit concurrently.
	Events probe.Hook[Event]
}

// NewTracer creates a tracer for size ranks.
func NewTracer(size int) *Tracer {
	return &Tracer{events: make([][]Event, size), epoch: time.Now()}
}

// Size returns the number of ranks the tracer records.
func (t *Tracer) Size() int { return len(t.events) }

// Epoch returns the tracer's creation time (the natural timeline origin
// for exporting the per-rank event streams).
func (t *Tracer) Epoch() time.Time { return t.epoch }

func (t *Tracer) record(rank int, e Event) {
	e.Rank = rank
	publishEvent(e)
	t.mu.Lock()
	t.events[rank] = append(t.events[rank], e)
	t.mu.Unlock()
	t.Events.Emit(e)
}

// RecordEvent appends an externally constructed event to rank's stream.
// Besides instrumentation layered on top of the runtime, this is the
// deterministic-injection path for testing the trace analyses: callers
// control every timestamp, so wait-state assertions need no real sleeps.
// Out-of-range ranks are ignored.
func (t *Tracer) RecordEvent(rank int, e Event) {
	if rank < 0 || rank >= len(t.events) {
		return
	}
	t.record(rank, e)
}

// RecordCompute lets application code mark a computation phase, so the
// communication share can be computed per rank.
func (t *Tracer) RecordCompute(rank int, start, end time.Time) {
	t.record(rank, Event{Kind: EvCompute, Peer: -1, Start: start, End: end})
}

// RankEvents returns a copy of rank's event stream in chronological order.
func (t *Tracer) RankEvents(rank int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]Event(nil), t.events[rank]...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// RankProfile summarizes one rank's time breakdown.
type RankProfile struct {
	Rank         int
	SendTime     time.Duration
	RecvTime     time.Duration
	CollTime     time.Duration
	ComputeTime  time.Duration
	BytesSent    int
	MessagesSent int
}

// CommTime returns total communication time.
func (p RankProfile) CommTime() time.Duration {
	return p.SendTime + p.RecvTime + p.CollTime
}

// Profile computes per-rank summaries.
func (t *Tracer) Profile() []RankProfile {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]RankProfile, len(t.events))
	for r, evs := range t.events {
		p := RankProfile{Rank: r}
		for _, e := range evs {
			switch e.Kind {
			case EvSend:
				p.SendTime += e.Duration()
				p.BytesSent += e.Bytes
				p.MessagesSent++
			case EvRecv:
				p.RecvTime += e.Duration()
			case EvCompute:
				p.ComputeTime += e.Duration()
			default:
				p.CollTime += e.Duration()
			}
		}
		out[r] = p
	}
	return out
}

// WaitStates is the Scalasca-style diagnosis of the trace.
type WaitStates struct {
	// LateSenderTime is, per rank, the receive time spent blocked before
	// the matching send had even started — the classic late-sender wait
	// state.
	LateSenderTime []time.Duration
	// ImbalanceRatio is (max-min)/max of per-rank communication+compute
	// spans, the load-imbalance indicator.
	ImbalanceRatio float64
}

// AnalyzeWaitStates matches recv events to the chronologically
// corresponding send events between each rank pair and attributes
// late-sender time.
func (t *Tracer) AnalyzeWaitStates() WaitStates {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.events)
	ws := WaitStates{LateSenderTime: make([]time.Duration, n)}

	// Index sends per (src, dst) in chronological order.
	sends := make(map[[2]int][]Event)
	for src, evs := range t.events {
		for _, e := range evs {
			if e.Kind == EvSend {
				sends[[2]int{src, e.Peer}] = append(sends[[2]int{src, e.Peer}], e)
			}
		}
	}
	for k := range sends {
		s := sends[k]
		sort.Slice(s, func(i, j int) bool { return s[i].Start.Before(s[j].Start) })
		sends[k] = s
	}
	used := make(map[[2]int]int)
	late := ws.LateSenderTime
	for dst, evs := range t.events {
		recvs := make([]Event, 0, len(evs))
		for _, e := range evs {
			if e.Kind == EvRecv {
				recvs = append(recvs, e)
			}
		}
		sort.Slice(recvs, func(i, j int) bool { return recvs[i].Start.Before(recvs[j].Start) })
		for _, re := range recvs {
			key := [2]int{re.Peer, dst}
			idx := used[key]
			if idx >= len(sends[key]) {
				continue
			}
			se := sends[key][idx]
			used[key] = idx + 1
			if se.Start.After(re.Start) {
				wait := se.Start.Sub(re.Start)
				if recvDur := re.Duration(); wait > recvDur {
					wait = recvDur
				}
				late[dst] += wait
			}
		}
	}

	// Imbalance over per-rank busy spans.
	var maxSpan, minSpan time.Duration
	first := true
	for _, evs := range t.events {
		var span time.Duration
		for _, e := range evs {
			span += e.Duration()
		}
		if first {
			maxSpan, minSpan = span, span
			first = false
		}
		if span > maxSpan {
			maxSpan = span
		}
		if span < minSpan {
			minSpan = span
		}
	}
	if maxSpan > 0 {
		ws.ImbalanceRatio = float64(maxSpan-minSpan) / float64(maxSpan)
	}
	publishWaitStates(ws)
	return ws
}

// Report renders the profile and wait states.
func (t *Tracer) Report() string {
	var sb strings.Builder
	ws := t.AnalyzeWaitStates()
	sb.WriteString("rank  send        recv        coll        compute     bytes    late-sender\n")
	for _, p := range t.Profile() {
		fmt.Fprintf(&sb, "%4d  %-10s  %-10s  %-10s  %-10s  %-7d  %s\n",
			p.Rank, p.SendTime.Round(time.Microsecond), p.RecvTime.Round(time.Microsecond),
			p.CollTime.Round(time.Microsecond), p.ComputeTime.Round(time.Microsecond),
			p.BytesSent, ws.LateSenderTime[p.Rank].Round(time.Microsecond))
	}
	fmt.Fprintf(&sb, "imbalance ratio: %.2f\n", ws.ImbalanceRatio)
	return sb.String()
}
