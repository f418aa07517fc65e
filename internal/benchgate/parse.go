package benchgate

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"
)

// Parsing of `go test -bench` text output into a ResultSet. The format is
// line-oriented:
//
//	goos: linux
//	goarch: amd64
//	pkg: perfeng
//	cpu: AMD EPYC 7763 64-Core Processor
//	BenchmarkSmoke/matmul-ikj/n=128-8    846    1416399 ns/op    12 B/op    3 allocs/op
//	...
//	PASS
//
// Sub-benchmark names contain '/'; the trailing -<n> go test appends when
// GOMAXPROCS > 1 is detected by consensus over the whole run (every
// benchmark carries the same suffix), stripped from the names, and
// recorded as Environment.Procs so runs at different GOMAXPROCS settings
// compare as an environment mismatch rather than silently merging.
// Repeated lines for the same name (from -count=N) accumulate as samples
// of one Series.

// ParseGoBench reads go test -bench output from r. It never fails on
// malformed benchmark lines — those are collected in ResultSet.Malformed —
// and only returns an error when r itself fails.
func ParseGoBench(r io.Reader) (*ResultSet, error) {
	rs := &ResultSet{Benchmarks: make(map[string]*Series)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		// A baseline is JSON, which holds only valid UTF-8: read each line
		// as a baseline will store it.
		line := strings.ToValidUTF8(strings.TrimSpace(sc.Text()), "\uFFFD")
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "goos:"):
			rs.Env.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rs.Env.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rs.Env.CPUModel = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			rs.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			name, smp, ok := parseBenchLine(line)
			if !ok {
				rs.Malformed = append(rs.Malformed, line)
				continue
			}
			s := rs.Benchmarks[name]
			if s == nil {
				s = &Series{Name: name}
				rs.Benchmarks[name] = s
			}
			s.Samples = append(s.Samples, smp)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	stripRunProcsSuffix(rs)
	return rs, nil
}

// parseBenchLine parses one result line. A valid line has the benchmark
// name, an iteration count, and at least a "<value> ns/op" pair; B/op,
// allocs/op and MB/s pairs are optional. Every value must be finite and
// non-negative.
func parseBenchLine(line string) (string, Sample, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", Sample{}, false
	}
	name := fields[0]
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || iters <= 0 {
		return "", Sample{}, false
	}
	smp := Sample{Iterations: iters}
	sawNs := false
	// The remainder is value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		// !(v >= 0) also rejects NaN; a baseline cannot store NaN or Inf.
		if err != nil || !(v >= 0) || math.IsInf(v, 1) {
			return "", Sample{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			smp.NsPerOp = v
			sawNs = true
		case "MB/s":
			smp.MBPerSec = v
			smp.HasMB = true
		case "B/op":
			smp.BytesPerOp = v
			smp.HasMem = true
		case "allocs/op":
			smp.AllocsPerOp = v
			smp.HasMem = true
		default:
			// Unknown unit (custom b.ReportMetric): ignore the pair, the
			// line is still valid if ns/op is present.
		}
	}
	if !sawNs {
		return "", Sample{}, false
	}
	return name, smp, true
}

// stripRunProcsSuffix removes the -<GOMAXPROCS> suffix go test appends to
// every benchmark name of a run ("BenchmarkFoo/n=128-8" ->
// "BenchmarkFoo/n=128"; absent when GOMAXPROCS=1) and records the value
// as Environment.Procs. The suffix is only recognized by consensus:
// every benchmark of the run must end in the same "-<digits>", which is
// exactly what go test produces. A lone trailing number is part of the
// benchmark's identity — a sub-benchmark like ".../shards-4" run at
// GOMAXPROCS=1, or two -cpu variants in one output — and is kept, so
// runs at different -cpu values never silently merge under one name.
func stripRunProcsSuffix(rs *ResultSet) {
	digits := ""
	for name := range rs.Benchmarks {
		d := trailingDigits(name)
		if d == "" || (digits != "" && d != digits) {
			return
		}
		digits = d
	}
	if digits == "" {
		return
	}
	suffix := "-" + digits
	renamed := make(map[string]*Series, len(rs.Benchmarks))
	for name, s := range rs.Benchmarks {
		short := strings.TrimSuffix(name, suffix)
		s.Name = short
		renamed[short] = s
	}
	rs.Benchmarks = renamed
	rs.Env.Procs, _ = strconv.Atoi(digits)
}

// trailingDigits returns the digits of a trailing "-<digits>" on name,
// or "" when there is none.
func trailingDigits(name string) string {
	i := strings.LastIndex(name, "-")
	if i <= 0 || i == len(name)-1 {
		return ""
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return ""
		}
	}
	return name[i+1:]
}
