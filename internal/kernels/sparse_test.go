package kernels

import (
	"math"
	"testing"
	"testing/quick"
)

// denseFromCOO materializes a small COO matrix for reference computation.
func denseFromCOO(m *COO) [][]float64 {
	d := make([][]float64, m.Rows)
	for i := range d {
		d[i] = make([]float64, m.Cols)
	}
	for k := range m.Vals {
		d[m.RowIdx[k]][m.ColIdx[k]] += m.Vals[k]
	}
	return d
}

func refSpMV(d [][]float64, x []float64) []float64 {
	y := make([]float64, len(d))
	for i, row := range d {
		for j, v := range row {
			y[i] += v * x[j]
		}
	}
	return y
}

func vecDiff(a, b []float64) float64 {
	var max float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > max {
			max = d
		}
	}
	return max
}

func TestCOOValidate(t *testing.T) {
	m := RandomSparse(10, 8, 30, 1)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &COO{Rows: 2, Cols: 2, RowIdx: []int32{5}, ColIdx: []int32{0}, Vals: []float64{1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range row must fail")
	}
	bad2 := &COO{Rows: 2, Cols: 2, RowIdx: []int32{0}, ColIdx: []int32{0}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("length mismatch must fail")
	}
}

func TestFormatConversionsPreserveValues(t *testing.T) {
	m := RandomSparse(20, 15, 80, 2)
	dense := denseFromCOO(m)
	csr := m.ToCSR()
	csc := m.ToCSC()
	back := csr.ToCOO()
	dense2 := denseFromCOO(back)
	for i := range dense {
		for j := range dense[i] {
			if math.Abs(dense[i][j]-dense2[i][j]) > 1e-12 {
				t.Fatalf("CSR round trip changed (%d,%d)", i, j)
			}
		}
	}
	// Row pointer sanity.
	if int(csr.RowPtr[csr.Rows]) != csr.NNZ() {
		t.Fatal("CSR RowPtr tail != NNZ")
	}
	if int(csc.ColPtr[csc.Cols]) != csc.NNZ() {
		t.Fatal("CSC ColPtr tail != NNZ")
	}
}

func TestDuplicatesSummed(t *testing.T) {
	// Row 2 holds two cells whose sums depend on the order of addition,
	// their triplets interleaved and out of column order. ToCSR sums in
	// input order: (1e16 + 1) + -1e16 = 0 and (1e16 + -1e16) + 1 = 1.
	m := &COO{Rows: 3, Cols: 2,
		RowIdx: []int32{0, 0, 1, 2, 2, 2, 2, 2, 2},
		ColIdx: []int32{1, 1, 0, 1, 0, 1, 0, 1, 0},
		Vals:   []float64{2, 3, 4, 1e16, 1e16, -1e16, 1, 1, -1e16}}
	csr := m.ToCSR()
	if csr.NNZ() != 4 {
		t.Fatalf("NNZ after dedup = %d, want 4", csr.NNZ())
	}
	x := []float64{1, 1}
	y := make([]float64, 3)
	SpMVCSR(csr, x, y)
	if y[0] != 5 || y[1] != 4 {
		t.Fatalf("y = %v, want [5 4 ...]", y)
	}
	if got := csr.Vals[2:]; got[0] != 0 || got[1] != 1 {
		t.Fatalf("row 2 = %v, want [0 1] (input-order sums)", got)
	}
}

var csrSink *CSR

// TestToCSRAllocs pins ToCSR's allocation count at two matrix sizes: the
// counting sort never allocates per row or per non-zero.
func TestToCSRAllocs(t *testing.T) {
	for _, n := range []int{100, 20000} {
		m := RandomSparse(n, n, 10*n, 7)
		if a := allocsPerRun(func() { csrSink = m.ToCSR() }); a != 6 {
			t.Errorf("n=%d: ToCSR allocates %v times, want 6", n, a)
		}
	}
}

func TestAllSpMVFormatsAgree(t *testing.T) {
	for _, gen := range []func() *COO{
		func() *COO { return RandomSparse(40, 40, 200, 3) },
		func() *COO { return BandedSparse(40, 3, 4) },
		func() *COO { return PowerLawSparse(40, 5, 1.5, 5) },
	} {
		m := gen()
		dense := denseFromCOO(m)
		x := UniformSamples(m.Cols, 9)
		want := refSpMV(dense, x)

		csr, csc := m.ToCSR(), m.ToCSC()
		y := make([]float64, m.Rows)
		SpMVCSR(csr, x, y)
		if vecDiff(y, want) > 1e-9 {
			t.Fatal("CSR SpMV wrong")
		}
		SpMVCSC(csc, x, y)
		if vecDiff(y, want) > 1e-9 {
			t.Fatal("CSC SpMV wrong")
		}
		SpMVCOO(m, x, y)
		if vecDiff(y, want) > 1e-9 {
			t.Fatal("COO SpMV wrong")
		}
		for _, w := range []int{1, 3, 8} {
			SpMVCSRParallel(csr, x, y, w)
			if vecDiff(y, want) > 1e-9 {
				t.Fatalf("parallel CSR (w=%d) wrong", w)
			}
		}
	}
}

func TestSpMVWorkCharacterization(t *testing.T) {
	if SpMVFLOPs(10) != 20 {
		t.Fatal("SpMVFLOPs wrong")
	}
	if SpMVCSRBytes(10, 100) <= 0 {
		t.Fatal("SpMVCSRBytes must be positive")
	}
}

func TestGenerators(t *testing.T) {
	b := BandedSparse(10, 1, 1)
	// Tridiagonal: 3n - 2 entries.
	if b.NNZ() != 28 {
		t.Fatalf("banded NNZ = %d, want 28", b.NNZ())
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	p := PowerLawSparse(50, 4, 1.2, 2)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	csr := p.ToCSR()
	st := csr.Stats()
	// Power-law structure must be visibly imbalanced.
	if st.RowCV < 0.3 {
		t.Fatalf("power-law RowCV = %v, want > 0.3", st.RowCV)
	}
	if st.MaxPerRow <= int(st.MeanPerRow) {
		t.Fatal("power-law max row should exceed mean")
	}
}

func TestStats(t *testing.T) {
	m := BandedSparse(10, 1, 1).ToCSR()
	s := m.Stats()
	if s.Rows != 10 || s.NNZ != 28 {
		t.Fatalf("stats identity wrong: %+v", s)
	}
	if math.Abs(s.MeanPerRow-2.8) > 1e-12 {
		t.Fatalf("MeanPerRow = %v", s.MeanPerRow)
	}
	if s.EmptyRows != 0 {
		t.Fatal("banded has no empty rows")
	}
	// Tridiagonal: every nnz is within the +-1 diagonal band.
	if s.DiagonalDominance != 1 {
		t.Fatalf("DiagonalDominance = %v, want 1", s.DiagonalDominance)
	}
	if s.Density <= 0 || s.Density > 1 {
		t.Fatalf("Density = %v", s.Density)
	}
	empty := (&COO{Rows: 0, Cols: 0}).ToCSR()
	_ = empty.Stats() // must not panic
}

// Property: SpMV is linear — A*(2x) == 2*(A*x) across all formats.
func TestQuickSpMVLinearity(t *testing.T) {
	f := func(seed int64) bool {
		m := RandomSparse(15, 15, 60, seed)
		csr := m.ToCSR()
		x := UniformSamples(15, seed+1)
		x2 := make([]float64, len(x))
		for i := range x {
			x2[i] = 2 * x[i]
		}
		y1 := make([]float64, 15)
		y2 := make([]float64, 15)
		SpMVCSR(csr, x, y1)
		SpMVCSR(csr, x2, y2)
		for i := range y1 {
			if math.Abs(y2[i]-2*y1[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: conversion chain COO -> CSR -> COO -> CSC agrees with direct
// COO -> CSC on the dense materialization.
func TestQuickConversionCommutes(t *testing.T) {
	f := func(seed int64) bool {
		m := RandomSparse(12, 9, 40, seed)
		d1 := denseFromCOO(m.ToCSR().ToCOO())
		x := UniformSamples(9, seed)
		want := refSpMV(denseFromCOO(m), x)
		got1 := refSpMV(d1, x)
		y := make([]float64, 12)
		SpMVCSC(m.ToCSC(), x, y)
		return vecDiff(got1, want) < 1e-9 && vecDiff(y, want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
