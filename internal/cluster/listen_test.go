package cluster

import (
	"sync"
	"testing"
	"time"
)

// TestTracerListen: a sink on Tracer.Events sees every recorded event
// stamped with its rank, may safely query the tracer from the callback,
// and stops receiving once detached.
func TestTracerListen(t *testing.T) {
	tr := NewTracer(2)
	var mu sync.Mutex
	var got []Event
	detach := tr.Events.Attach(func(e Event) {
		mu.Lock()
		got = append(got, e)
		mu.Unlock()
		_ = tr.RankEvents(e.Rank) // must not deadlock
	})
	now := time.Now()
	tr.RecordEvent(0, Event{Kind: EvSend, Peer: 1, Bytes: 8, Start: now, End: now.Add(time.Millisecond)})
	tr.RecordCompute(1, now, now.Add(2*time.Millisecond))
	mu.Lock()
	n := len(got)
	if n == 2 && (got[0].Rank != 0 || got[1].Rank != 1) {
		t.Errorf("event ranks = %d, %d, want 0, 1", got[0].Rank, got[1].Rank)
	}
	mu.Unlock()
	if n != 2 {
		t.Fatalf("sink saw %d events, want 2", n)
	}
	detach()
	tr.RecordEvent(0, Event{Kind: EvBarrier, Peer: -1, Start: now, End: now})
	mu.Lock()
	n = len(got)
	mu.Unlock()
	if n != 2 {
		t.Fatalf("detached sink still invoked: %d events", n)
	}
}
