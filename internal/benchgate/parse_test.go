package benchgate

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: perfeng
cpu: AMD EPYC 7763 64-Core Processor
BenchmarkSmoke/matmul-ikj/n=128-8         	     846	   1416399 ns/op	      12 B/op	       3 allocs/op
BenchmarkSmoke/matmul-ikj/n=128-8         	     850	   1410022 ns/op	      12 B/op	       3 allocs/op
BenchmarkSmoke/spmv-csr-8                 	    5000	    250123 ns/op	 512.50 MB/s	       0 B/op	       0 allocs/op
BenchmarkSmoke/spmv-csr-8                 	    5100	    248000 ns/op	 515.00 MB/s	       0 B/op	       0 allocs/op
BenchmarkPlain-8                          	 1000000	      1234 ns/op
PASS
ok  	perfeng	1.234s
`

func TestParseGoBench(t *testing.T) {
	rs, err := ParseGoBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Env.GOOS != "linux" || rs.Env.GOARCH != "amd64" {
		t.Fatalf("env = %+v", rs.Env)
	}
	if rs.Env.CPUModel != "AMD EPYC 7763 64-Core Processor" {
		t.Fatalf("cpu = %q", rs.Env.CPUModel)
	}
	if rs.Pkg != "perfeng" {
		t.Fatalf("pkg = %q", rs.Pkg)
	}
	if rs.Len() != 3 {
		t.Fatalf("benchmarks = %v", rs.Names())
	}

	// Sub-benchmark name keeps its path, loses the -8 procs suffix, and
	// accumulates -count repetitions as samples.
	mm := rs.Benchmarks["BenchmarkSmoke/matmul-ikj/n=128"]
	if mm == nil {
		t.Fatalf("sub-benchmark missing: %v", rs.Names())
	}
	if len(mm.Samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(mm.Samples))
	}
	if mm.Samples[0].NsPerOp != 1416399 || mm.Samples[0].Iterations != 846 {
		t.Fatalf("sample = %+v", mm.Samples[0])
	}
	if !mm.Samples[0].HasMem || mm.Samples[0].BytesPerOp != 12 || mm.Samples[0].AllocsPerOp != 3 {
		t.Fatalf("benchmem columns lost: %+v", mm.Samples[0])
	}

	// MB/s column.
	sp := rs.Benchmarks["BenchmarkSmoke/spmv-csr"]
	if sp == nil || !sp.Samples[0].HasMB || sp.Samples[0].MBPerSec != 512.5 {
		t.Fatalf("MB/s lost: %+v", sp)
	}

	// A bench without -benchmem parses with HasMem=false.
	pl := rs.Benchmarks["BenchmarkPlain"]
	if pl == nil || pl.Samples[0].HasMem || pl.Samples[0].NsPerOp != 1234 {
		t.Fatalf("plain line = %+v", pl)
	}
	if len(rs.Malformed) != 0 {
		t.Fatalf("unexpected malformed lines: %v", rs.Malformed)
	}
}

// malformedOutput has six malformed benchmark lines and one good one.
const malformedOutput = `goos: linux
BenchmarkTruncated-8
BenchmarkBadIters-8     abc    100 ns/op
BenchmarkBadValue-8     100    xyz ns/op
BenchmarkNoNs-8         100    5 widgets/op
BenchmarkNaN-8          100    NaN ns/op
BenchmarkInf-8          100    +Inf ns/op
BenchmarkGood-8         100    5.0 ns/op
`

func TestParseMalformedLines(t *testing.T) {
	rs, err := ParseGoBench(strings.NewReader(malformedOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != 1 || rs.Benchmarks["BenchmarkGood"] == nil {
		t.Fatalf("benchmarks = %v", rs.Names())
	}
	if len(rs.Malformed) != 6 {
		t.Fatalf("malformed = %d (%v), want 6", len(rs.Malformed), rs.Malformed)
	}
}

func TestParseCustomMetricIgnored(t *testing.T) {
	// b.ReportMetric adds custom units; the line stays valid.
	in := "BenchmarkCustom-8   100   50 ns/op   3.00 misses/op\n"
	rs, err := ParseGoBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	s := rs.Benchmarks["BenchmarkCustom"]
	if s == nil || s.Samples[0].NsPerOp != 50 {
		t.Fatalf("custom-metric line mishandled: %+v", s)
	}
}

func TestProcsSuffixConsensusStrip(t *testing.T) {
	// Every name of a GOMAXPROCS=8 run carries the same -8 suffix, so it
	// is stripped from all of them — including names whose own last
	// element ends in a number — and recorded as Env.Procs.
	in := `BenchmarkFoo-8            100  10 ns/op
BenchmarkFoo/n=128-8      100  10 ns/op
BenchmarkFoo/p=4/e=8-8    100  10 ns/op
BenchmarkFoo/name-x-8     100  10 ns/op
BenchmarkFoo/assoc=1-256-8  100  10 ns/op
`
	rs := parseText(t, in)
	for _, want := range []string{
		"BenchmarkFoo", "BenchmarkFoo/n=128", "BenchmarkFoo/p=4/e=8",
		"BenchmarkFoo/name-x", "BenchmarkFoo/assoc=1-256",
	} {
		if rs.Benchmarks[want] == nil {
			t.Errorf("missing %q after suffix strip: %v", want, rs.Names())
		}
	}
	if rs.Env.Procs != 8 {
		t.Errorf("Env.Procs = %d, want 8", rs.Env.Procs)
	}
}

func TestProcsSuffixKeptWithoutConsensus(t *testing.T) {
	// A GOMAXPROCS=1 run has no procs suffix; a sub-benchmark that
	// legitimately ends in a number must keep it. Consensus protects it:
	// the sibling without trailing digits vetoes stripping.
	rs := parseText(t, `BenchmarkFoo/shards-4  100  10 ns/op
BenchmarkFoo/serial    100  12 ns/op
`)
	if rs.Benchmarks["BenchmarkFoo/shards-4"] == nil || rs.Benchmarks["BenchmarkFoo/serial"] == nil {
		t.Fatalf("GOMAXPROCS=1 names mangled: %v", rs.Names())
	}
	if rs.Env.Procs != 0 {
		t.Errorf("Env.Procs = %d, want 0 (unknown)", rs.Env.Procs)
	}
}

func TestProcsSuffixMixedCPUValuesStayDistinct(t *testing.T) {
	// One output holding runs at -cpu 8,16 must not merge the two
	// variants under one name.
	rs := parseText(t, `BenchmarkFoo/n=128-8   100  10 ns/op
BenchmarkFoo/n=128-16  100  11 ns/op
`)
	if rs.Len() != 2 ||
		rs.Benchmarks["BenchmarkFoo/n=128-8"] == nil ||
		rs.Benchmarks["BenchmarkFoo/n=128-16"] == nil {
		t.Fatalf("-cpu variants merged: %v", rs.Names())
	}
	if rs.Env.Procs != 0 {
		t.Errorf("Env.Procs = %d, want 0 (ambiguous)", rs.Env.Procs)
	}
}

// TestRoundTrip is the satellite coverage: bench text -> typed results ->
// JSON baseline -> reload -> compare against itself must be all-unchanged.
func TestRoundTrip(t *testing.T) {
	rs, err := ParseGoBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	b := FromResultSet(rs, Protocol{Pattern: "^BenchmarkSmoke$", Count: 2}, "2026-08-05T00:00:00Z")
	// Parsed input keeps exactly the environment its headers describe —
	// the local host's CPU count and Go version must NOT be stamped in,
	// because the text may come from another machine and a fake match
	// would make the gate binding when it should be advisory.
	if b.Env.NumCPU != 0 || b.Env.GoVersion != "" {
		t.Fatalf("host facts leaked into parsed environment: %+v", b.Env)
	}
	if b.Env.GOOS != "linux" || b.Env.CPUModel == "" {
		t.Fatalf("header environment lost: %+v", b.Env)
	}

	path := t.TempDir() + "/BENCH_1.json"
	b.Version = 1
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	re, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Benchmarks) != len(b.Benchmarks) {
		t.Fatalf("round-trip lost benchmarks: %d vs %d", len(re.Benchmarks), len(b.Benchmarks))
	}
	mm := re.Benchmarks["BenchmarkSmoke/matmul-ikj/n=128"]
	if len(mm.NsPerOp) != 2 || mm.NsPerOp[0] != 1416399 {
		t.Fatalf("ns samples lost: %+v", mm)
	}
	if len(mm.AllocsPerOp) != 2 || mm.AllocsPerOp[0] != 3 {
		t.Fatalf("alloc samples lost: %+v", mm)
	}

	// Comparing a baseline against itself: nothing may regress (the
	// degenerate Welch case of two identical series yields p=1).
	rep := Compare(re, re, Config{MinSamples: 2})
	if rep.Failed() {
		t.Fatalf("self-comparison failed the gate: %s", rep.Summary())
	}
	for _, c := range rep.Comparisons {
		switch {
		case c.BaseN >= 2 && c.Verdict != Unchanged:
			t.Fatalf("self-comparison verdict %s for %s", c.Verdict, c.Name)
		case c.BaseN < 2 && c.Verdict != Indeterminate:
			// A single -count=1 sample cannot support a t-test.
			t.Fatalf("single-sample verdict %s for %s", c.Verdict, c.Name)
		}
	}
}
