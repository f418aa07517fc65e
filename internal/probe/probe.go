// Package probe is the fan-out every timeline producer exposes: one
// typed Hook per producer, any number of sinks attached to it, so a
// live obs session and the flight recorder attach side by side instead
// of forwarding to each other. The sink list is copy-on-write under a
// mutex; Emit is one atomic load plus a loop, and events travel by
// value, so emitting allocates nothing.
package probe

import (
	"slices"
	"sync"
	"sync/atomic"
)

// sink is one attachment; the id tells apart two attachments of the
// same function.
type sink[E any] struct {
	id uint64
	fn func(E)
}

// Hook fans events of type E out to the attached sinks, in attach
// order, on the emitting goroutine. The zero value is ready to use; a
// Hook must not be copied after first use.
type Hook[E any] struct {
	sinks atomic.Pointer[[]sink[E]] // nil when no sink is attached
	//perfvet:ignore:falseshare mu is taken only to attach or detach; the per-event path only loads sinks, so the line stays read-shared
	mu     sync.Mutex
	lastID uint64 // guarded by mu
}

// Attach adds fn and returns the idempotent function that removes it.
// A nil fn attaches nothing, so a sink constructor may return nil for
// "disabled". fn must be safe for concurrent use when the producer
// emits from several goroutines.
func (h *Hook[E]) Attach(fn func(E)) (detach func()) {
	if fn == nil {
		return func() {}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.lastID++
	id := h.lastID
	h.store(append(slices.Clip(h.load()), sink[E]{id: id, fn: fn}))
	return func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.store(slices.DeleteFunc(slices.Clone(h.load()), func(s sink[E]) bool { return s.id == id }))
	}
}

func (h *Hook[E]) load() []sink[E] {
	if p := h.sinks.Load(); p != nil {
		return *p
	}
	return nil
}

// store publishes next; the caller holds mu.
func (h *Hook[E]) store(next []sink[E]) {
	if len(next) == 0 {
		h.sinks.Store(nil)
		return
	}
	h.sinks.Store(&next)
}

// Active reports whether any sink is attached. Producers check it
// before building an event only to emit it.
func (h *Hook[E]) Active() bool { return h.sinks.Load() != nil }

// Len reports how many sinks are attached.
func (h *Hook[E]) Len() int { return len(h.load()) }

// Emit delivers e to every attached sink.
func (h *Hook[E]) Emit(e E) {
	for _, s := range h.load() {
		s.fn(e)
	}
}
