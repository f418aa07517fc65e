// Package simulator provides an execution-driven, multi-level cache
// simulator ("Simulation and simulators" in the course's topic list). It
// substitutes for hardware performance counters: kernels replay their
// memory-access streams through a modeled hierarchy, which produces
// deterministic hit/miss/traffic counts that package counters exposes
// through a PAPI-like interface, and package patterns matches against
// performance-pattern signatures.
//
// The model is a set-associative, write-back, write-allocate hierarchy with
// true-LRU replacement and an optional next-line prefetcher — the textbook
// configuration the course's computer-architecture prerequisite assumes.
package simulator

import (
	"errors"
	"fmt"
	"strings"

	"perfeng/internal/machine"
)

// Stats counts the events of one cache level.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	// PrefetchIssued/PrefetchHits count prefetcher activity (fills and
	// demand hits on prefetched lines).
	PrefetchIssued uint64
	PrefetchHits   uint64
}

// Accesses returns demand accesses (hits+misses).
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRatio returns misses/accesses, or 0 when idle.
func (s Stats) MissRatio() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses) / float64(a)
}

type line struct {
	tag      uint64
	valid    bool
	dirty    bool
	prefetch bool // filled by the prefetcher, not yet demand-touched
	lastUse  uint64
}

// Policy selects the replacement policy of a cache level.
type Policy int

// Replacement policies.
const (
	// LRU evicts the least recently used way (the default).
	LRU Policy = iota
	// FIFO evicts the oldest-installed way regardless of reuse.
	FIFO
	// RandomPolicy evicts a pseudo-random way (deterministic xorshift).
	RandomPolicy
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	return [...]string{"lru", "fifo", "random"}[p]
}

// DefaultLineSize is the cache-line size, in bytes, of every machine
// model the course targets (x86-64 and recent ARM servers alike). It
// is the geometry both the coherence false-sharing demos and the
// perfvet falseshare analyzer assume when no explicit hierarchy is in
// play.
const DefaultLineSize = 64

// Cache is one set-associative level.
type Cache struct {
	Name     string
	Sets     int
	Assoc    int
	LineSize int
	// Policy is the replacement policy (LRU by default).
	Policy Policy
	// NextLinePrefetch enables a simple sequential prefetcher on misses.
	NextLinePrefetch bool

	rngState uint64

	sets  [][]line
	clock uint64
	stats Stats
	lower *Cache // nil = backed by memory
	// memReads/memWrites count line transfers to/from memory when this is
	// the last level.
	memReads, memWrites uint64
}

// NewCache builds a cache level. Geometry must be consistent
// (sets, assoc, lineSize > 0).
func NewCache(name string, sets, assoc, lineSize int) (*Cache, error) {
	if sets <= 0 || assoc <= 0 || lineSize <= 0 {
		return nil, fmt.Errorf("simulator: bad geometry for %s: sets=%d assoc=%d line=%d",
			name, sets, assoc, lineSize)
	}
	if lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("simulator: %s line size %d not a power of two", name, lineSize)
	}
	c := &Cache{Name: name, Sets: sets, Assoc: assoc, LineSize: lineSize}
	c.sets = make([][]line, sets)
	for i := range c.sets {
		c.sets[i] = make([]line, assoc)
	}
	return c, nil
}

// SizeBytes returns the capacity of the level.
func (c *Cache) SizeBytes() int { return c.Sets * c.Assoc * c.LineSize }

// Stats returns a copy of the level's counters.
func (c *Cache) Stats() Stats { return c.stats }

// MemTraffic returns (reads, writes) in lines between this level and memory;
// only meaningful on the last level.
func (c *Cache) MemTraffic() (reads, writes uint64) { return c.memReads, c.memWrites }

// Reset clears all lines and counters.
func (c *Cache) Reset() {
	for _, set := range c.sets {
		for j := range set {
			set[j] = line{}
		}
	}
	c.clock = 0
	c.stats = Stats{}
	c.memReads, c.memWrites = 0, 0
	if c.lower != nil {
		c.lower.Reset()
	}
}

func (c *Cache) indexTag(addr uint64) (int, uint64) {
	lineAddr := addr / uint64(c.LineSize)
	return int(lineAddr % uint64(c.Sets)), lineAddr / uint64(c.Sets)
}

// Access performs one demand access of the given kind at addr.
// It returns true on a hit in this level.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.clock++
	setIdx, tag := c.indexTag(addr)
	set := c.sets[setIdx]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stats.Hits++
			wasPrefetch := set[i].prefetch
			if wasPrefetch {
				c.stats.PrefetchHits++
				set[i].prefetch = false
			}
			if c.Policy == LRU {
				set[i].lastUse = c.clock
			}
			if write {
				set[i].dirty = true
			}
			if wasPrefetch && c.NextLinePrefetch {
				// Tagged prefetching: the first demand hit on a
				// prefetched line extends the stream.
				c.prefetchNext(addr)
			}
			return true
		}
	}
	c.stats.Misses++
	c.fill(addr, write, false)
	if c.NextLinePrefetch {
		c.prefetchNext(addr)
	}
	return false
}

func (c *Cache) prefetchNext(addr uint64) {
	next := (addr/uint64(c.LineSize) + 1) * uint64(c.LineSize)
	if !c.present(next) {
		c.stats.PrefetchIssued++
		c.fill(next, false, true)
	}
}

func (c *Cache) present(addr uint64) bool {
	setIdx, tag := c.indexTag(addr)
	for _, l := range c.sets[setIdx] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// fill brings the line holding addr into the level, recursing into the
// lower level (or memory) and evicting the LRU victim.
func (c *Cache) fill(addr uint64, write, prefetch bool) {
	// Fetch from below.
	if c.lower != nil {
		c.lower.Access(addr, false)
	} else {
		c.memReads++
	}
	setIdx, tag := c.indexTag(addr)
	set := c.sets[setIdx]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			goto install
		}
	}
	switch c.Policy {
	case RandomPolicy:
		// Deterministic xorshift64 sequence.
		c.rngState = c.rngState*6364136223846793005 + 1442695040888963407
		s := c.rngState
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		victim = int(s % uint64(len(set)))
	default:
		// LRU and FIFO both evict the smallest timestamp; they differ in
		// whether hits refresh it (see Access).
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[victim].lastUse {
				victim = i
			}
		}
	}
	c.stats.Evictions++
	if set[victim].dirty {
		c.stats.Writebacks++
		// Write the victim back to the level below (or memory).
		if c.lower != nil {
			victimAddr := (set[victim].tag*uint64(c.Sets) + uint64(setIdx)) * uint64(c.LineSize)
			c.lower.Access(victimAddr, true)
		} else {
			c.memWrites++
		}
	}
install:
	set[victim] = line{tag: tag, valid: true, dirty: write, prefetch: prefetch, lastUse: c.clock}
}

// Hierarchy is a stack of cache levels in front of memory.
type Hierarchy struct {
	Levels []*Cache
	// Accesses counts demand accesses issued to the hierarchy.
	Accesses uint64

	tlb *TLB

	// telLast/telLastAccesses hold the per-level stats as of the last
	// PublishTelemetry call, so publication forwards deltas.
	telLast         []Stats
	telLastAccesses uint64
}

// NewHierarchy chains the given levels (L1 first). At least one level is
// required.
func NewHierarchy(levels ...*Cache) (*Hierarchy, error) {
	if len(levels) == 0 {
		return nil, errors.New("simulator: hierarchy needs at least one level")
	}
	for i := 0; i < len(levels)-1; i++ {
		levels[i].lower = levels[i+1]
	}
	return &Hierarchy{Levels: levels}, nil
}

// FromCPU builds a hierarchy mirroring the CPU model's cache geometry.
func FromCPU(c machine.CPU) (*Hierarchy, error) {
	if len(c.Caches) == 0 {
		return nil, errors.New("simulator: CPU model has no caches")
	}
	levels := make([]*Cache, 0, len(c.Caches))
	for _, l := range c.Caches {
		sets, err := l.Sets()
		if err != nil {
			return nil, err
		}
		cache, err := NewCache(l.Name, sets, l.Assoc, l.LineBytes)
		if err != nil {
			return nil, err
		}
		levels = append(levels, cache)
	}
	return NewHierarchy(levels...)
}

// Access issues one demand access. size-byte accesses crossing a line
// boundary are split, as hardware does.
func (h *Hierarchy) Access(addr uint64, size int, write bool) {
	if size <= 0 {
		size = 1
	}
	if h.tlb != nil {
		// Translate each page the access touches.
		firstPage := addr / uint64(h.tlb.PageSize)
		lastPage := (addr + uint64(size) - 1) / uint64(h.tlb.PageSize)
		for p := firstPage; p <= lastPage; p++ {
			h.tlb.Access(p * uint64(h.tlb.PageSize))
		}
	}
	l1 := h.Levels[0]
	first := addr / uint64(l1.LineSize)
	last := (addr + uint64(size) - 1) / uint64(l1.LineSize)
	for lineAddr := first; lineAddr <= last; lineAddr++ {
		h.Accesses++
		l1.Access(lineAddr*uint64(l1.LineSize), write)
	}
}

// Load is shorthand for a read access.
func (h *Hierarchy) Load(addr uint64, size int) { h.Access(addr, size, false) }

// Store is shorthand for a write access.
func (h *Hierarchy) Store(addr uint64, size int) { h.Access(addr, size, true) }

// Reset clears all levels and the TLB, if attached.
func (h *Hierarchy) Reset() {
	h.Accesses = 0
	h.Levels[0].Reset() // recurses via lower links
	if h.tlb != nil {
		h.tlb.Reset()
	}
}

// AMAT returns the average memory access time in cycles given per-level hit
// latencies and the memory latency (all in cycles). lat must have one entry
// per level.
func (h *Hierarchy) AMAT(lat []float64, memLat float64) (float64, error) {
	if len(lat) != len(h.Levels) {
		return 0, fmt.Errorf("simulator: AMAT needs %d latencies, got %d", len(h.Levels), len(lat))
	}
	if len(h.Levels) == 0 || h.Levels[0].Stats().Accesses() == 0 {
		return 0, nil
	}
	// AMAT = hitTime_1 + missRatio_1 * (hitTime_2 + missRatio_2 * (...)).
	t := memLat
	for i := len(h.Levels) - 1; i >= 0; i-- {
		t = lat[i] + h.Levels[i].Stats().MissRatio()*t
	}
	return t, nil
}

// MemTrafficBytes returns bytes moved between the last level and memory.
func (h *Hierarchy) MemTrafficBytes() float64 {
	last := h.Levels[len(h.Levels)-1]
	r, w := last.MemTraffic()
	return float64(r+w) * float64(last.LineSize)
}

// Report renders the per-level counters.
func (h *Hierarchy) Report() string {
	var sb strings.Builder
	for _, l := range h.Levels {
		s := l.Stats()
		fmt.Fprintf(&sb, "%-4s %10d acc  %10d miss  %6.2f%% miss  %8d evict  %8d wb\n",
			l.Name, s.Accesses(), s.Misses, s.MissRatio()*100, s.Evictions, s.Writebacks)
	}
	r, w := h.Levels[len(h.Levels)-1].MemTraffic()
	fmt.Fprintf(&sb, "mem  %10d line reads  %10d line writes  (%.1f KiB)\n",
		r, w, h.MemTrafficBytes()/1024)
	return sb.String()
}
