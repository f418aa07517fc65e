// Package counters provides a PAPI-like performance-counter interface
// (Assignment 4: "tools like Linux PERF, PAPI, LIKWID"): named events,
// event sets that are started/stopped around a region, and derived metrics
// (IPC, miss ratios, bandwidth).
//
// The backend reads the execution-driven cache simulator (package
// simulator), giving deterministic microarchitectural counts the way
// PAPI reads PMU registers. Backend is an interface, so the pattern
// detector (package patterns) stays backend-agnostic. Go runtime
// counters (allocations, GC, goroutines) are not read here: the
// telemetry collector is the one runtime reader, and perfeng's traces
// sample it at every profiler span exit.
package counters

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"perfeng/internal/simulator"
)

// Event names the counters the toolbox knows about. The names follow the
// PAPI preset style.
type Event string

// Simulator-backed events.
const (
	L1DCA Event = "PAPI_L1_DCA" // L1 data cache accesses
	L1DCM Event = "PAPI_L1_DCM" // L1 data cache misses
	L2DCA Event = "PAPI_L2_DCA"
	L2DCM Event = "PAPI_L2_DCM"
	L3DCA Event = "PAPI_L3_DCA"
	L3DCM Event = "PAPI_L3_DCM"
	MemRd Event = "MEM_LINES_IN"  // lines read from memory
	MemWr Event = "MEM_LINES_OUT" // lines written back to memory
	PrfIs Event = "PREFETCH_ISSUED"
	PrfHt Event = "PREFETCH_HITS"
	L1WBK Event = "L1_WRITEBACKS" // dirty lines written back from L1
	TLBA  Event = "PAPI_TLB_DM_A" // data TLB accesses (when a TLB is attached)
	TLBM  Event = "PAPI_TLB_DM"   // data TLB misses
)

// Backend supplies raw counter values.
type Backend interface {
	// Supported lists the events this backend can count.
	Supported() []Event
	// Read returns the current cumulative value of the event.
	Read(e Event) (uint64, error)
}

// SimBackend reads counters from a cache-simulator hierarchy.
type SimBackend struct {
	H *simulator.Hierarchy
}

// simLevelEvents pairs the access/miss events of cache levels 1-3.
var simLevelEvents = [...][2]Event{{L1DCA, L1DCM}, {L2DCA, L2DCM}, {L3DCA, L3DCM}}

// Supported implements Backend.
func (b *SimBackend) Supported() []Event {
	evs := []Event{MemRd, MemWr, PrfIs, PrfHt, L1WBK}
	if b.H.TLB() != nil {
		evs = append(evs, TLBA, TLBM)
	}
	for i := range b.H.Levels {
		if i < len(simLevelEvents) {
			evs = append(evs, simLevelEvents[i][0], simLevelEvents[i][1])
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i] < evs[j] })
	return evs
}

// Read implements Backend.
func (b *SimBackend) Read(e Event) (uint64, error) {
	level := func(i int) (simulator.Stats, error) {
		if i >= len(b.H.Levels) {
			return simulator.Stats{}, fmt.Errorf("counters: no cache level %d", i+1)
		}
		return b.H.Levels[i].Stats(), nil
	}
	switch e {
	case L1DCA:
		s, err := level(0)
		return s.Accesses(), err
	case L1DCM:
		s, err := level(0)
		return s.Misses, err
	case L2DCA:
		s, err := level(1)
		return s.Accesses(), err
	case L2DCM:
		s, err := level(1)
		return s.Misses, err
	case L3DCA:
		s, err := level(2)
		return s.Accesses(), err
	case L3DCM:
		s, err := level(2)
		return s.Misses, err
	case MemRd:
		r, _ := b.H.Levels[len(b.H.Levels)-1].MemTraffic()
		return r, nil
	case MemWr:
		_, w := b.H.Levels[len(b.H.Levels)-1].MemTraffic()
		return w, nil
	case PrfIs:
		s, err := level(0)
		return s.PrefetchIssued, err
	case PrfHt:
		s, err := level(0)
		return s.PrefetchHits, err
	case L1WBK:
		s, err := level(0)
		return s.Writebacks, err
	case TLBA:
		t := b.H.TLB()
		if t == nil {
			return 0, fmt.Errorf("counters: no TLB attached")
		}
		return t.Hits() + t.Misses(), nil
	case TLBM:
		t := b.H.TLB()
		if t == nil {
			return 0, fmt.Errorf("counters: no TLB attached")
		}
		return t.Misses(), nil
	default:
		return 0, fmt.Errorf("counters: event %s not supported by simulator backend", e)
	}
}

// EventSet is a PAPI-style set: add events, Start, run the region, Stop,
// read the deltas.
type EventSet struct {
	backend Backend
	events  []Event
	start   map[Event]uint64
	values  map[Event]uint64
	running bool
}

// NewEventSet creates an event set over the backend.
func NewEventSet(b Backend) *EventSet {
	return &EventSet{backend: b}
}

// Add registers an event. It returns an error for events the backend
// cannot count, mirroring PAPI_add_event semantics.
func (s *EventSet) Add(evs ...Event) error {
	if s.running {
		return errors.New("counters: cannot add to a running set")
	}
	// Linear scan rather than a set: backends expose a handful of
	// events, and Add runs during session wiring where a scratch map
	// per call is pure overhead.
	supported := s.backend.Supported()
	for _, e := range evs {
		if !slices.Contains(supported, e) {
			return fmt.Errorf("counters: event %s not supported", e)
		}
		s.events = append(s.events, e)
	}
	return nil
}

// Start snapshots the counters.
func (s *EventSet) Start() error {
	if s.running {
		return errors.New("counters: set already running")
	}
	if len(s.events) == 0 {
		return errors.New("counters: empty event set")
	}
	s.start = make(map[Event]uint64, len(s.events))
	for _, e := range s.events {
		v, err := s.backend.Read(e)
		if err != nil {
			return err
		}
		s.start[e] = v
	}
	s.running = true
	return nil
}

// Stop reads the counters and stores the deltas since Start.
func (s *EventSet) Stop() error {
	if !s.running {
		return errors.New("counters: set not running")
	}
	s.values = make(map[Event]uint64, len(s.events))
	for _, e := range s.events {
		v, err := s.backend.Read(e)
		if err != nil {
			return err
		}
		s.values[e] = v - s.start[e]
	}
	s.running = false
	return nil
}

// Value returns the delta of one event after Stop.
func (s *EventSet) Value(e Event) (uint64, error) {
	if s.values == nil {
		return 0, errors.New("counters: set has not been stopped")
	}
	v, ok := s.values[e]
	if !ok {
		return 0, fmt.Errorf("counters: event %s not in set", e)
	}
	return v, nil
}

// Values returns all deltas.
func (s *EventSet) Values() map[Event]uint64 {
	out := make(map[Event]uint64, len(s.values))
	for k, v := range s.values {
		out[k] = v
	}
	return out
}

// Measure wraps the Start/f/Stop cycle.
func (s *EventSet) Measure(f func()) error {
	if err := s.Start(); err != nil {
		return err
	}
	f()
	return s.Stop()
}

// String renders the deltas sorted by event name.
func (s *EventSet) String() string {
	keys := make([]string, 0, len(s.values))
	for e := range s.values {
		keys = append(keys, string(e))
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%-16s %12d\n", k, s.values[Event(k)])
	}
	return sb.String()
}
