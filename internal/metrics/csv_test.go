package metrics

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"
)

func TestWriteCSV(t *testing.T) {
	ms := []*Measurement{
		{Name: "a", Seconds: []float64{1, 2, 3}, FLOPs: 6e9, Bytes: 3e9, Procs: 1},
		{Name: "b", Seconds: []float64{0.5}, Procs: 4},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ms); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want header + 2", len(rows))
	}
	if rows[0][0] != "name" || len(rows[0]) != 15 {
		t.Fatalf("header = %v", rows[0])
	}
	if rows[1][0] != "a" || rows[2][0] != "b" {
		t.Fatal("names wrong")
	}
	med, err := strconv.ParseFloat(rows[1][2], 64)
	if err != nil || med != 2 {
		t.Fatalf("median = %v, %v", med, err)
	}
	gflops, _ := strconv.ParseFloat(rows[1][12], 64)
	if gflops != 3 { // 6e9 FLOPs / 2 s
		t.Fatalf("gflops = %v", gflops)
	}
}

func TestWriteRawCSV(t *testing.T) {
	ms := []*Measurement{{Name: "k", Seconds: []float64{0.1, 0.2}}}
	var buf bytes.Buffer
	if err := WriteRawCSV(&buf, ms); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[2][1] != "1" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCompareMeasurementsSignificant(t *testing.T) {
	a := &Measurement{Name: "slow", Seconds: []float64{10, 10.1, 9.9, 10.05, 9.95}}
	b := &Measurement{Name: "fast", Seconds: []float64{5, 5.1, 4.9, 5.05, 4.95}}
	c, err := CompareMeasurements(a, b, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Significant || c.P > 0.001 {
		t.Fatalf("clear 2x difference not significant: %+v", c)
	}
	if c.Speedup < 1.9 || c.Speedup > 2.1 {
		t.Fatalf("speedup = %v", c.Speedup)
	}
	if c.String() == "" {
		t.Fatal("String empty")
	}
}

func TestCompareMeasurementsNoise(t *testing.T) {
	// Overlapping noisy series: the difference must not be significant.
	a := &Measurement{Name: "a", Seconds: []float64{10, 12, 9, 11, 10.5, 9.5}}
	b := &Measurement{Name: "b", Seconds: []float64{10.2, 11.8, 9.1, 11.1, 10.4, 9.6}}
	c, err := CompareMeasurements(a, b, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if c.Significant {
		t.Fatalf("noise flagged significant: %+v", c)
	}
	if c.P < 0.5 {
		t.Fatalf("p-value = %v for near-identical series", c.P)
	}
}

func TestCompareMeasurementsEdgeCases(t *testing.T) {
	one := &Measurement{Name: "one", Seconds: []float64{1}}
	two := &Measurement{Name: "two", Seconds: []float64{1, 1}}
	if _, err := CompareMeasurements(one, two, 0); err == nil {
		t.Fatal("single sample must fail")
	}
	// Identical constant series: p = 1.
	c, err := CompareMeasurements(two, two, 0)
	if err != nil || c.P != 1 || c.Significant {
		t.Fatalf("identical series: %+v, %v", c, err)
	}
	// Distinct constant series: p = 0.
	three := &Measurement{Name: "three", Seconds: []float64{2, 2}}
	c2, _ := CompareMeasurements(two, three, 0)
	if !c2.Significant || c2.P != 0 {
		t.Fatalf("distinct constants: %+v", c2)
	}
	// Default alpha applied.
	if c2.Alpha != 0.05 {
		t.Fatalf("alpha = %v", c2.Alpha)
	}
}

func TestSummarizeSuite(t *testing.T) {
	base := []*Measurement{
		{Seconds: []float64{4}}, {Seconds: []float64{9}},
	}
	opt := []*Measurement{
		{Seconds: []float64{2}}, {Seconds: []float64{1}},
	}
	s, err := SummarizeSuite(base, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Speedups 2 and 9: geomean sqrt(18) ~ 4.2426.
	if s.N != 2 || s.MinSpeedup != 2 || s.MaxSpeedup != 9 {
		t.Fatalf("summary = %+v", s)
	}
	if s.GeoMeanSpeedup < 4.24 || s.GeoMeanSpeedup > 4.25 {
		t.Fatalf("geomean = %v", s.GeoMeanSpeedup)
	}
	if _, err := SummarizeSuite(base, opt[:1]); err == nil {
		t.Fatal("length mismatch must fail")
	}
	zero := []*Measurement{{Seconds: []float64{0}}}
	if _, err := SummarizeSuite([]*Measurement{{Seconds: []float64{1}}}, zero); err == nil {
		t.Fatal("degenerate speedup must fail")
	}
}
