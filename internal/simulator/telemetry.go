package simulator

import (
	"sync/atomic"

	"perfeng/internal/telemetry"
)

// Live-telemetry hooks for the cache simulator. The Access hot loop is
// deliberately untouched — it is part of the gated benchmark surface —
// so publication is pull-based: callers invoke Hierarchy.PublishTelemetry
// at safe points (end of a simulated kernel, between phases) and the
// hierarchy forwards the delta since its last publication.

type telHandles struct {
	accesses *telemetry.Counter
	hits     *telemetry.CounterFamily
	misses   *telemetry.CounterFamily
}

// tel is never nil: disabled, it holds the handle set of a nil
// registry.
var tel atomic.Pointer[telHandles]

func init() { EnableTelemetry(nil) }

// EnableTelemetry publishes cache-simulation activity to reg: demand
// accesses issued to hierarchies, and hits/misses by level name.
// Passing nil stops publication.
func EnableTelemetry(reg *telemetry.Registry) {
	tel.Store(&telHandles{
		accesses: reg.Counter("perfeng_simcache_accesses",
			"Demand accesses issued to simulated hierarchies."),
		hits: reg.CounterFamily("perfeng_simcache_hits",
			"Simulated cache hits by level.", "level"),
		misses: reg.CounterFamily("perfeng_simcache_misses",
			"Simulated cache misses by level.", "level"),
	})
}

// statDelta returns cur-last, treating a regression (Reset between
// publications) as a fresh start so counters never wrap.
func statDelta(cur, last uint64) uint64 {
	if cur < last {
		return cur
	}
	return cur - last
}

// PublishTelemetry forwards the hierarchy's hit/miss/access activity
// since the last publication to the enabled registry. It is a no-op
// when telemetry is disabled, and safe to call at any safe point in a
// simulation (it reads the same per-level Stats the reports use, so it
// must not race with concurrent Access calls — the simulator is
// single-threaded by design).
func (h *Hierarchy) PublishTelemetry() {
	th := tel.Load()
	if th.accesses == nil {
		// The nil registry's handles: leave the baseline, so the first
		// enabled publication forwards everything since the last one.
		return
	}
	if len(h.telLast) != len(h.Levels) {
		h.telLast = make([]Stats, len(h.Levels))
	}
	for i, c := range h.Levels {
		s := c.Stats()
		last := &h.telLast[i]
		//perfvet:ignore:allocattr one label lookup per level per publication, and publication runs once per simulated phase
		th.hits.With(c.Name).Add(statDelta(s.Hits, last.Hits))
		//perfvet:ignore:allocattr one label lookup per level per publication, and publication runs once per simulated phase
		th.misses.With(c.Name).Add(statDelta(s.Misses, last.Misses))
		*last = s
	}
	th.accesses.Add(statDelta(h.Accesses, h.telLastAccesses))
	h.telLastAccesses = h.Accesses
}
