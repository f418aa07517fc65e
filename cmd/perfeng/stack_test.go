package main

import (
	"context"
	"testing"
	"time"

	"perfeng"
	"perfeng/internal/sched"
)

// TestStackSinksDoNotPileUp: every iteration of the serve loop wires a
// fresh session, and each replaces the previous iteration's sinks
// instead of adding to them; closing the stack detaches everything it
// attached.
func TestStackSinksDoNotPileUp(t *testing.T) {
	st, err := newRunStack(stackConfig{cmd: "serve", addr: "127.0.0.1:0", interval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	app, err := perfeng.BuiltinApplication("histogram", 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	tasks, samples := &sched.Default().Tasks, &st.collector.Samples
	// A stack that never iterates (serve -loop=false) attaches no sched
	// sink at all.
	if tasks.Len() != 0 {
		t.Fatalf("sched sinks attached before the first iteration: %d", tasks.Len())
	}
	var afterOne [2]int
	for i := 1; i <= 3; i++ {
		if _, err := st.iterate("pile-up", app, 2, 32); err != nil {
			t.Fatal(err)
		}
		got := [2]int{tasks.Len(), samples.Len()}
		if i == 1 {
			afterOne = got
			if got != [2]int{2, 2} {
				t.Fatalf("after one iteration: %d sched and %d sample sinks, want 2 and 2", got[0], got[1])
			}
		} else if got != afterOne {
			t.Fatalf("after %d iterations: %d sched and %d sample sinks, want %v as after one",
				i, got[0], got[1], afterOne)
		}
	}
	if err := st.close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if tasks.Active() || samples.Active() {
		t.Fatalf("sinks left attached after close: %d sched, %d sample", tasks.Len(), samples.Len())
	}
}
