// The runtime side of the tuning cache: an atomically swappable table
// the parallel kernels consult on every dispatch. Design constraints,
// in order:
//
//   - Lookup sits on the dispatch path of every tuned kernel, so it
//     must be allocation-free and a few nanoseconds when a cache is
//     active, and one atomic load + one branch when none is
//     (BenchmarkSmoke gates the active path at 0 allocs/op).
//   - A miss must be indistinguishable from "tuning was never built":
//     callers fall back to their historical defaults, so activation is
//     always safe and deactivation always restores the untuned build.
package tune

import (
	"sort"
	"sync/atomic"
)

// sized is one activated entry: the shape it was tuned at and the
// winning config.
type sized struct {
	n   int
	cfg Config
}

// table is the immutable activated form of a cache. Entries are grouped
// by kernel and sorted by shape; lookups scan the (short) per-kernel
// slice for the nearest shape.
type table struct {
	byKernel map[string][]sized
}

var active atomic.Pointer[table]

// ShapeSpread bounds how far a lookup shape may sit from a tuned shape
// before the entry stops applying: within a factor of 4 either way. A
// config tuned at n=512 says nothing trustworthy about n=64 — cache
// footprints and per-range costs shift regimes — so out-of-range
// lookups miss and the kernel keeps its defaults.
const ShapeSpread = 4

// Activate installs the cache's entries as the process-wide tuning
// table and returns how many entries were installed. A nil cache (or
// one with no valid entries) deactivates tuning entirely. Entries with
// invalid configs or non-positive shapes are skipped — a doctored or
// corrupted cache degrades to defaults, never to a broken dispatch.
//
// Activation is not synchronized against in-flight lookups beyond the
// atomic swap: kernels running concurrently see either the old or the
// new table, both of which are internally consistent.
func Activate(c *Cache) int {
	if c == nil || len(c.Entries) == 0 {
		active.Store(nil)
		return 0
	}
	t := &table{byKernel: make(map[string][]sized, len(c.Entries))}
	installed := 0
	for _, e := range c.Entries {
		if e.Kernel == "" || e.N <= 0 || e.Config.Validate() != nil {
			continue
		}
		t.byKernel[e.Kernel] = append(t.byKernel[e.Kernel], sized{n: e.N, cfg: e.Config})
		installed++
	}
	if installed == 0 {
		active.Store(nil)
		return 0
	}
	for k := range t.byKernel {
		es := t.byKernel[k]
		sort.Slice(es, func(i, j int) bool { return es[i].n < es[j].n })
	}
	active.Store(t)
	return installed
}

// ActivateOne installs a single-entry table — the search engine
// measures every candidate through this, so trials run on the exact
// dispatch path the production kernels use, and tests and benchmarks
// use it to pin a known config.
func ActivateOne(kernel string, n int, cfg Config) {
	Activate(&Cache{Entries: []Entry{{Kernel: kernel, N: n, Config: cfg}}})
}

// Active reports whether a tuning table is installed.
func Active() bool { return active.Load() != nil }

// Lookup returns the tuned config for a kernel at shape n, if an
// activated entry's shape is within ShapeSpread of n (nearest entry
// wins, ties to the smaller shape). The miss path — no table, unknown
// kernel, or every entry out of range — returns (Config{}, false) and
// the caller falls back to its defaults.
//
// Hot-path contract: 0 allocs, no locks; gated by BenchmarkSmoke's
// tune-lookup entry.
func Lookup(kernel string, n int) (Config, bool) {
	t := active.Load()
	if t == nil {
		return Config{}, false
	}
	th := tel.Load()
	th.lookups.Inc()
	es := t.byKernel[kernel]
	best := -1
	var bestRatio float64
	for i := range es {
		en := es[i].n
		// ratio >= 1 measures shape distance symmetrically.
		ratio := float64(n) / float64(en)
		if ratio < 1 {
			ratio = 1 / ratio
		}
		if ratio > ShapeSpread {
			continue
		}
		if best < 0 || ratio < bestRatio {
			best, bestRatio = i, ratio
		}
	}
	if best < 0 {
		th.misses.Inc()
		return Config{}, false
	}
	th.hits.Inc()
	return es[best].cfg, true
}
