package probe

import (
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type event struct {
	name string
	at   time.Time
	n    int
}

func TestHookFanOut(t *testing.T) {
	var h Hook[event]
	if h.Active() || h.Len() != 0 {
		t.Fatal("zero hook reports sinks")
	}
	h.Emit(event{n: 1}) // no sinks: a no-op

	var got []string
	detachA := h.Attach(func(e event) { got = append(got, "a"+e.name) })
	detachB := h.Attach(func(e event) { got = append(got, "b"+e.name) })
	if noop := h.Attach(nil); h.Len() != 2 {
		t.Fatalf("nil sink attached: Len = %d", h.Len())
	} else {
		noop()
	}
	h.Emit(event{name: "1"})
	detachA()
	detachA() // idempotent: must not remove b
	h.Emit(event{name: "2"})
	if h.Len() != 1 || !h.Active() {
		t.Fatalf("after one detach: Len = %d, Active = %v", h.Len(), h.Active())
	}
	detachB()
	h.Emit(event{name: "3"})
	if h.Active() {
		t.Fatal("hook active after every sink detached")
	}
	want := []string{"a1", "b1", "b2"}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v (attach order)", got, want)
		}
	}
}

// TestHookSameSinkTwice: each attachment is its own; detaching one
// leaves the other delivering.
func TestHookSameSinkTwice(t *testing.T) {
	var h Hook[int]
	n := 0
	fn := func(int) { n++ }
	d1 := h.Attach(fn)
	h.Attach(fn)
	h.Emit(0)
	d1()
	h.Emit(0)
	if n != 3 {
		t.Fatalf("deliveries = %d, want 3", n)
	}
}

// TestHookConcurrent attaches and detaches while other goroutines emit:
// every emit sees a consistent sink list (run with -race).
func TestHookConcurrent(t *testing.T) {
	var h Hook[event]
	var delivered atomic.Int64
	stable := h.Attach(func(event) { delivered.Add(1) })
	defer stable()

	const emitters, emits = 4, 2000
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < emits; i++ {
				h.Emit(event{n: i})
			}
		}()
	}
	for i := 0; i < 200; i++ {
		h.Attach(func(event) {})()
	}
	wg.Wait()
	if got := delivered.Load(); got != emitters*emits {
		t.Fatalf("stable sink saw %d events, want %d", got, emitters*emits)
	}
	if h.Len() != 1 {
		t.Fatalf("Len = %d after transient sinks detached, want 1", h.Len())
	}
}

// TestEmitAllocs: events travel by value, so emitting to attached sinks
// allocates nothing.
func TestEmitAllocs(t *testing.T) {
	var h Hook[event]
	var total int
	h.Attach(func(e event) { total += e.n })
	h.Attach(func(e event) { total -= e.n })
	e := event{name: "x", at: time.Now(), n: 3}
	if a := testing.AllocsPerRun(1000, func() { h.Emit(e) }); a != 0 {
		t.Fatalf("Emit allocates: %v allocs/op", a)
	}
}

func BenchmarkEmit(b *testing.B) {
	e := event{name: "x", at: time.Now(), n: 1}
	for _, sinks := range []int{0, 1, 2} {
		b.Run("sinks="+strconv.Itoa(sinks), func(b *testing.B) {
			var h Hook[event]
			var total int
			for i := 0; i < sinks; i++ {
				h.Attach(func(e event) { total += e.n })
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Emit(e)
			}
		})
	}
}
