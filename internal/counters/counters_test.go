package counters

import (
	"strings"
	"testing"

	"perfeng/internal/machine"
	"perfeng/internal/simulator"
)

func simSet(t *testing.T) (*EventSet, *simulator.Hierarchy) {
	t.Helper()
	h, err := simulator.FromCPU(machine.DAS5CPU())
	if err != nil {
		t.Fatal(err)
	}
	return NewEventSet(&SimBackend{H: h}), h
}

func TestSimBackendSupported(t *testing.T) {
	s, _ := simSet(t)
	evs := s.backend.Supported()
	want := map[Event]bool{L1DCA: true, L2DCM: true, L3DCA: true, MemRd: true}
	found := 0
	for _, e := range evs {
		if want[e] {
			found++
		}
	}
	if found != len(want) {
		t.Fatalf("supported = %v", evs)
	}
}

func TestEventSetLifecycle(t *testing.T) {
	s, h := simSet(t)
	if err := s.Add(L1DCA, L1DCM, MemRd, MemWr); err != nil {
		t.Fatal(err)
	}
	if err := s.Measure(func() {
		simulator.TraceStreamTriad(h, 4096)
	}); err != nil {
		t.Fatal(err)
	}
	acc, err := s.Value(L1DCA)
	if err != nil || acc == 0 {
		t.Fatalf("L1DCA = %d, %v", acc, err)
	}
	miss, _ := s.Value(L1DCM)
	if miss == 0 || miss >= acc {
		t.Fatalf("L1DCM = %d vs %d accesses", miss, acc)
	}
	if len(s.Values()) != 4 {
		t.Fatalf("Values = %v", s.Values())
	}
	if !strings.Contains(s.String(), "PAPI_L1_DCA") {
		t.Fatal("String incomplete")
	}
}

func TestEventSetDeltas(t *testing.T) {
	s, h := simSet(t)
	if err := s.Add(L1DCA); err != nil {
		t.Fatal(err)
	}
	// Pre-existing traffic must not leak into the measured delta.
	simulator.TraceStreamTriad(h, 1024)
	if err := s.Measure(func() { simulator.TraceStrided(h, 100, 1) }); err != nil {
		t.Fatal(err)
	}
	v, _ := s.Value(L1DCA)
	if v != 100 {
		t.Fatalf("delta = %d, want 100", v)
	}
}

func TestEventSetErrors(t *testing.T) {
	s, _ := simSet(t)
	if err := s.Start(); err == nil {
		t.Fatal("empty set Start must fail")
	}
	if err := s.Add(Event("BOGUS")); err == nil {
		t.Fatal("unsupported event must fail")
	}
	if err := s.Add(L1DCA); err != nil {
		t.Fatal(err)
	}
	if err := s.Stop(); err == nil {
		t.Fatal("Stop before Start must fail")
	}
	if _, err := s.Value(L1DCA); err == nil {
		t.Fatal("Value before Stop must fail")
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Fatal("double Start must fail")
	}
	if err := s.Add(L1DCM); err == nil {
		t.Fatal("Add while running must fail")
	}
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Value(L2DCA); err == nil {
		t.Fatal("Value of event not in set must fail")
	}
}

func TestDerived(t *testing.T) {
	s, h := simSet(t)
	if err := s.Add(L1DCA, L1DCM, L2DCA, L2DCM, L3DCA, L3DCM, MemRd, MemWr); err != nil {
		t.Fatal(err)
	}
	if err := s.Measure(func() { simulator.TraceStreamTriad(h, 1<<14) }); err != nil {
		t.Fatal(err)
	}
	d, err := DeriveFromSim(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Streaming triad: ~1/8 L1 miss ratio, nonzero DRAM traffic.
	if d.L1MissRatio < 0.05 || d.L1MissRatio > 0.25 {
		t.Fatalf("L1 miss ratio = %v", d.L1MissRatio)
	}
	if d.MemBytes <= 0 {
		t.Fatal("no DRAM traffic recorded")
	}
	if !strings.Contains(d.String(), "DRAM") {
		t.Fatal("String incomplete")
	}
}

func TestDerivedBeforeStop(t *testing.T) {
	s, _ := simSet(t)
	if err := s.Add(L1DCA); err != nil {
		t.Fatal(err)
	}
	if _, err := DeriveFromSim(s, 64); err == nil {
		t.Fatal("derive before stop must fail")
	}
}

func TestSimBackendLevelErrors(t *testing.T) {
	// Single-level hierarchy: L2/L3 events unsupported.
	l1, err := simulator.NewCache("L1", 8, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	h, err := simulator.NewHierarchy(l1)
	if err != nil {
		t.Fatal(err)
	}
	s := NewEventSet(&SimBackend{H: h})
	if err := s.Add(L2DCA); err == nil {
		t.Fatal("L2 event on 1-level hierarchy must fail")
	}
	if err := s.Add(L1DCA, MemRd); err != nil {
		t.Fatal(err)
	}
}

func TestTLBEvents(t *testing.T) {
	h, err := simulator.FromCPU(machine.DAS5CPU())
	if err != nil {
		t.Fatal(err)
	}
	// Without a TLB the events are unsupported.
	s := NewEventSet(&SimBackend{H: h})
	if err := s.Add(TLBA); err == nil {
		t.Fatal("TLB event without TLB must fail")
	}
	// With a TLB attached, deltas flow.
	tlb, err := simulator.NewTLB(16, 4096)
	if err != nil {
		t.Fatal(err)
	}
	h.AttachTLB(tlb)
	s2 := NewEventSet(&SimBackend{H: h})
	if err := s2.Add(TLBA, TLBM); err != nil {
		t.Fatal(err)
	}
	if err := s2.Measure(func() {
		for i := 0; i < 1000; i++ {
			h.Load(uint64(i)*4096, 8)
		}
	}); err != nil {
		t.Fatal(err)
	}
	a, _ := s2.Value(TLBA)
	m, _ := s2.Value(TLBM)
	if a != 1000 || m == 0 || m > a {
		t.Fatalf("TLB deltas: %d accesses, %d misses", a, m)
	}
}
