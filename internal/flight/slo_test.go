package flight

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"perfeng/internal/obs"
	"perfeng/internal/telemetry"
)

// objectiveCases and badObjectives are TestParseObjective's table and
// FuzzParseObjective's seeds.
var objectiveCases = []struct {
	in   string
	want Objective
}{
	{"matmul_seconds.p99<20ms",
		Objective{Raw: "matmul_seconds.p99<20ms", Metric: "matmul_seconds", Kind: KindQuantile, Q: 0.99, Threshold: 0.020}},
	{" lat.p99.9 < 1s ",
		Objective{Raw: "lat.p99.9<1s", Metric: "lat", Kind: KindQuantile, Q: 99.9 / 100, Threshold: 1}},
	{"go_gc_pause_burn_ratio.max<0.05",
		Objective{Raw: "go_gc_pause_burn_ratio.max<0.05", Metric: "go_gc_pause_burn_ratio", Kind: KindCeiling, Threshold: 0.05}},
	{"lat.p50<250us",
		Objective{Raw: "lat.p50<250us", Metric: "lat", Kind: KindQuantile, Q: 0.50, Threshold: 0.000250}},
}

var badObjectives = []string{
	"", "lat.p99", "lat<20ms", ".p99<1s", "lat.<1s", "lat.q99<1s",
	"lat.p101<1s", "lat.pxx<1s", "lat.p99<fast",
	"m.max<NaN", "m.p99<Inf", "m.pNaN<1s",
}

func TestParseObjective(t *testing.T) {
	for _, c := range objectiveCases {
		got, err := ParseObjective(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		// Q comes out of runtime float division; compare with slack.
		if dq := got.Q - c.want.Q; dq > 1e-9 || dq < -1e-9 {
			t.Fatalf("%q: Q = %v, want %v", c.in, got.Q, c.want.Q)
		}
		got.Q = c.want.Q
		if got != c.want {
			t.Fatalf("%q: got %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, bad := range badObjectives {
		if _, err := ParseObjective(bad); err == nil {
			t.Fatalf("%q: expected parse error", bad)
		}
	}
	list, err := ParseObjectives("a_b.p99<1ms, c_d.max<0.5,")
	if err != nil || len(list) != 2 {
		t.Fatalf("ParseObjectives: %v, %v", list, err)
	}
	if _, err := ParseObjectives("a_b.p99<1ms,broken"); err == nil {
		t.Fatal("ParseObjectives must propagate element errors")
	}
}

// TestEngineQuantileViolation: a histogram breaching its p99 objective
// produces a violation carrying the exemplar of the extreme
// observation, and the violation counter moves.
func TestEngineQuantileViolation(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("lat_seconds", "t", -30, 4)
	// 90 fast, 10 slow: the p99 rank (q*(count-1) = 98.01) lands among
	// the slow observations' bucket.
	for i := 0; i < 90; i++ {
		h.Observe(0.001)
	}
	for i := 0; i < 10; i++ {
		h.ObserveExemplar(2.0, telemetry.Exemplar{
			Value: 2.0, Track: "host", Name: "iteration",
			Start: 5 * time.Millisecond, Dur: 2 * time.Second,
		})
	}

	obj, err := ParseObjective("lat_seconds.p99<20ms")
	if err != nil {
		t.Fatal(err)
	}
	var fired []Violation
	e := NewEngine(reg, NewRecorder(0), []Objective{obj}, func(v Violation) { fired = append(fired, v) })
	e.Cooldown = time.Hour

	vs := e.Check()
	if len(vs) != 1 || len(fired) != 1 {
		t.Fatalf("violations = %d, fired = %d, want 1/1", len(vs), len(fired))
	}
	v := vs[0]
	if !v.HasExemplar || v.Exemplar.Name != "iteration" || v.Exemplar.Dur != 2*time.Second {
		t.Fatalf("violation exemplar = %+v", v.Exemplar)
	}
	if v.Value <= 0.020 {
		t.Fatalf("observed p99 = %v, should exceed the 20ms bound", v.Value)
	}
	if !strings.Contains(v.String(), "lat_seconds.p99<20ms") {
		t.Fatalf("violation string %q does not name the objective", v.String())
	}
	// Second check within the cooldown: counted, not re-fired.
	if vs := e.Check(); len(vs) != 1 || len(fired) != 1 {
		t.Fatalf("cooldown did not hold: %d fired", len(fired))
	}
	if c := reg.Snapshot(); !hasCounter(c, "perfeng_slo_violations", 2) {
		t.Fatal("violation counter did not reach 2")
	}
}

func hasCounter(snap []telemetry.FamilySnapshot, name string, want float64) bool {
	for _, f := range snap {
		if f.Name == name {
			for _, s := range f.Series {
				if s.Value == want {
					return true
				}
			}
		}
	}
	return false
}

// TestEngineCeilingAndSkips: ceiling objectives watch gauges; missing
// metrics and in-bound values produce no violations.
func TestEngineCeilingAndSkips(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := reg.Gauge("ratio", "t")
	objs, err := ParseObjectives("ratio.max<0.5,absent_metric.p99<1ms,absent_gauge.max<1")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(reg, nil, objs, nil)
	g.Set(0.4)
	if vs := e.Check(); len(vs) != 0 {
		t.Fatalf("in-bound gauge violated: %+v", vs)
	}
	g.Set(0.9)
	vs := e.Check()
	if len(vs) != 1 || vs[0].Objective.Metric != "ratio" || vs[0].Value != 0.9 {
		t.Fatalf("ceiling violation = %+v", vs)
	}
	if vs[0].HasExemplar {
		t.Fatal("gauge violations carry no exemplar")
	}
	// An empty histogram (registered, no data) is also skipped.
	reg.Histogram("empty_h", "t", -4, 4)
	objs2, _ := ParseObjectives("empty_h.p99<1ns")
	if vs := NewEngine(reg, nil, objs2, nil).Check(); len(vs) != 0 {
		t.Fatalf("empty histogram violated: %+v", vs)
	}
}

// TestDumpSession: the dump drains the ring and stamps the violated
// objective onto the "slo" track at the exemplar's interval; the
// session round-trips through the Chrome-trace JSON structs.
func TestDumpSession(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := NewRecorder(0)
	rec.RecordSpan("host", "iteration", "", 5*time.Millisecond, 2*time.Second)

	obj, _ := ParseObjective("lat_seconds.p99<20ms")
	e := NewEngine(reg, rec, []Objective{obj}, nil)
	v := Violation{
		Objective: obj, Value: 1.9,
		Exemplar: telemetry.Exemplar{
			Value: 2.0, Track: "host", Name: "iteration",
			Start: 5 * time.Millisecond, Dur: 2 * time.Second,
		},
		HasExemplar: true,
	}
	s := e.DumpSession("flight dump", &v)

	var buf strings.Builder
	if err := s.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct obs.ChromeTrace
	if err := json.Unmarshal([]byte(buf.String()), &ct); err != nil {
		t.Fatalf("trace.json does not parse: %v", err)
	}
	foundObjective, foundEvidence := false, false
	for _, ev := range ct.TraceEvents {
		if ev.Name == obj.Raw {
			foundObjective = true
		}
		if ev.Name == "iteration" {
			foundEvidence = true
		}
	}
	if !foundObjective {
		t.Fatal("dump does not contain a span named by the violated objective")
	}
	if !foundEvidence {
		t.Fatal("dump does not contain the drained evidence span")
	}

	// Without an exemplar the objective lands as an instant marker.
	v2 := Violation{Objective: obj, Value: 1.9}
	s2 := e.DumpSession("dump2", &v2)
	ins := s2.Instants()
	if len(ins) != 1 || ins[0].Name != obj.Raw {
		t.Fatalf("exemplar-less dump instants = %+v", ins)
	}
}

// TestEngineWatcher: the background watcher evaluates on its own and
// stops cleanly.
func TestEngineWatcher(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Gauge("r", "t").Set(1)
	objs, _ := ParseObjectives("r.max<0.5")
	fired := make(chan Violation, 16)
	e := NewEngine(reg, nil, objs, func(v Violation) {
		select {
		case fired <- v:
		default:
		}
	})
	e.Cooldown = 0
	e.Start(10 * time.Millisecond)
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never fired")
	}
	e.Stop()
	e.Stop() // idempotent
}
