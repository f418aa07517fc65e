package kernels

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"perfeng/internal/tune"
)

// Sparse matrix-vector multiplication (Assignments 3 and 4) in the three
// classical storage formats the course hands to students: CSR, CSC and COO.
// SpMV is the canonical data-dependent kernel — its performance depends on
// the non-zero structure, which is what makes it the statistical-modeling
// workload of Assignment 3.

// COO is a coordinate-format sparse matrix (row, col, value triplets).
type COO struct {
	Rows, Cols int
	RowIdx     []int32
	ColIdx     []int32
	Vals       []float64
}

// NNZ returns the number of stored non-zeros.
func (m *COO) NNZ() int { return len(m.Vals) }

// Validate checks index bounds and slice-length agreement.
func (m *COO) Validate() error {
	if len(m.RowIdx) != len(m.Vals) || len(m.ColIdx) != len(m.Vals) {
		return errors.New("kernels: COO slice length mismatch")
	}
	for i := range m.Vals {
		if m.RowIdx[i] < 0 || int(m.RowIdx[i]) >= m.Rows {
			return fmt.Errorf("kernels: COO row index %d out of range", m.RowIdx[i])
		}
		if m.ColIdx[i] < 0 || int(m.ColIdx[i]) >= m.Cols {
			return fmt.Errorf("kernels: COO col index %d out of range", m.ColIdx[i])
		}
	}
	return nil
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32 // len Rows+1
	ColIdx     []int32 // len NNZ
	Vals       []float64
}

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.Vals) }

// CSC is a compressed-sparse-column matrix.
type CSC struct {
	Rows, Cols int
	ColPtr     []int32 // len Cols+1
	RowIdx     []int32 // len NNZ
	Vals       []float64
}

// NNZ returns the number of stored non-zeros.
func (m *CSC) NNZ() int { return len(m.Vals) }

// ToCSR converts the COO matrix to CSR with column indices strictly
// increasing within each row. Duplicate entries are summed, as the Matrix
// Market convention expects, in their input order: ((v0 + v1) + v2) for
// three entries of one cell. A counting sort buckets the triplets by row
// in O(Rows+NNZ), then each row is stable-sorted by column on its own.
func (m *COO) ToCSR() *CSR {
	type entry struct {
		c int32
		v float64
	}
	rp := make([]int32, m.Rows+1)
	for _, r := range m.RowIdx {
		rp[r+1]++
	}
	cursor := rowStarts(rp)
	es := make([]entry, m.NNZ())
	for i, r := range m.RowIdx {
		es[cursor[r]] = entry{m.ColIdx[i], m.Vals[i]}
		cursor[r]++
	}
	out := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: rp,
		ColIdx: make([]int32, 0, len(es)), Vals: make([]float64, 0, len(es))}
	lo := rp[0]
	for r := 0; r < m.Rows; r++ {
		hi := rp[r+1]
		row := es[lo:hi]
		slices.SortStableFunc(row, func(a, b entry) int { return cmp.Compare(a.c, b.c) })
		for k := 0; k < len(row); {
			c, v := row[k].c, 0.0
			for ; k < len(row) && row[k].c == c; k++ {
				v += row[k].v
			}
			out.ColIdx = append(out.ColIdx, c)
			out.Vals = append(out.Vals, v)
		}
		rp[r+1] = int32(len(out.ColIdx)) // row r+1 still starts at hi in es
		lo = hi
	}
	return out
}

// ToCSC converts the COO matrix to CSC. Duplicates are summed.
func (m *COO) ToCSC() *CSC {
	t := &COO{Rows: m.Cols, Cols: m.Rows, RowIdx: m.ColIdx, ColIdx: m.RowIdx, Vals: m.Vals}
	csr := t.ToCSR() // CSR of the transpose == CSC of the original
	return &CSC{Rows: m.Rows, Cols: m.Cols, ColPtr: csr.RowPtr, RowIdx: csr.ColIdx, Vals: csr.Vals}
}

// ToCOO converts back to coordinate format (row-major order).
func (m *CSR) ToCOO() *COO {
	out := &COO{Rows: m.Rows, Cols: m.Cols,
		RowIdx: make([]int32, 0, m.NNZ()),
		ColIdx: append([]int32(nil), m.ColIdx...),
		Vals:   append([]float64(nil), m.Vals...)}
	rp := m.RowPtr
	for r := 0; r < len(rp)-1; r++ {
		for k := rp[r]; k < rp[r+1]; k++ {
			out.RowIdx = append(out.RowIdx, int32(r))
		}
	}
	return out
}

// SpMVCSR computes y = A*x for a CSR matrix: unit-stride over the values,
// gather on x — the format of choice for row-parallel SpMV.
func SpMVCSR(a *CSR, x, y []float64) {
	rp, ci, vals := a.RowPtr, a.ColIdx, a.Vals
	for r := range y[:a.Rows] {
		var sum float64
		for k := rp[r]; k < rp[r+1]; k++ {
			sum += vals[k] * x[ci[k]]
		}
		y[r] = sum
	}
}

// SpMVCSRParallel computes y = A*x with rows split across the shared
// scheduler. With workers <= 0 the stealing policy rebalances power-law
// row-length imbalance that a static split cannot.
func SpMVCSRParallel(a *CSR, x, y []float64, workers int) {
	rp, ci, vals := a.RowPtr, a.ColIdx, a.Vals
	parForTuned(tune.KernelSpMVCSR, a.Rows, workers, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			var sum float64
			for k := rp[r]; k < rp[r+1]; k++ {
				sum += vals[k] * x[ci[k]]
			}
			y[r] = sum
		}
	})
}

// SpMVCSC computes y = A*x for a CSC matrix: scatter on y, which defeats
// row-parallelism and streams x instead — the slow format for this
// operation, kept as the pedagogical contrast.
func SpMVCSC(a *CSC, x, y []float64) {
	for i := range y[:a.Rows] {
		y[i] = 0
	}
	cp, ri, vals := a.ColPtr, a.RowIdx, a.Vals
	for c, xv := range x[:a.Cols] {
		if xv == 0 {
			continue
		}
		for k := cp[c]; k < cp[c+1]; k++ {
			y[ri[k]] += vals[k] * xv
		}
	}
}

// SpMVCOO computes y = A*x for a COO matrix: fully irregular scatter/gather.
func SpMVCOO(a *COO, x, y []float64) {
	for i := range y[:a.Rows] {
		y[i] = 0
	}
	for k := range a.Vals {
		y[a.RowIdx[k]] += a.Vals[k] * x[a.ColIdx[k]]
	}
}

// SpMVFLOPs returns the floating-point work of one SpMV (2 per non-zero).
func SpMVFLOPs(nnz int) float64 { return 2 * float64(nnz) }

// SpMVCSRBytes returns the compulsory traffic of a CSR SpMV: values +
// column indices + row pointers + x and y once each.
func SpMVCSRBytes(rows, nnz int) float64 {
	return float64(nnz)*(8+4) + float64(rows+1)*4 + float64(rows)*8*2
}

// RandomSparse returns a Rows x Cols COO matrix with the given nnz count,
// uniform random structure, deterministic in seed. Duplicate coordinates
// may appear and are summed on conversion; nnz is the generated triplet
// count.
func RandomSparse(rows, cols, nnz int, seed int64) *COO {
	rng := rand.New(rand.NewSource(seed))
	m := &COO{Rows: rows, Cols: cols,
		RowIdx: make([]int32, nnz),
		ColIdx: make([]int32, nnz),
		Vals:   make([]float64, nnz)}
	for i := 0; i < nnz; i++ {
		m.RowIdx[i] = int32(rng.Intn(rows))
		m.ColIdx[i] = int32(rng.Intn(cols))
		m.Vals[i] = rng.Float64()*2 - 1
	}
	return m
}

// BandedSparse returns an n x n COO matrix with the given half bandwidth
// (diagonal plus band neighbours), the regular-structure contrast to
// RandomSparse in the Assignment 3 dataset families.
func BandedSparse(n, halfBand int, seed int64) *COO {
	rng := rand.New(rand.NewSource(seed))
	m := &COO{Rows: n, Cols: n}
	for i := 0; i < n; i++ {
		for j := max(0, i-halfBand); j <= min(n-1, i+halfBand); j++ {
			m.RowIdx = append(m.RowIdx, int32(i))
			m.ColIdx = append(m.ColIdx, int32(j))
			m.Vals = append(m.Vals, rng.Float64()*2-1)
		}
	}
	return m
}

// PowerLawSparse returns an n x n COO matrix whose row populations follow a
// Zipf-like distribution — the load-imbalance adversary for row-parallel
// SpMV, and a feature-engineering exercise for the statistical models.
func PowerLawSparse(n, avgPerRow int, alpha float64, seed int64) *COO {
	rng := rand.New(rand.NewSource(seed))
	m := &COO{Rows: n, Cols: n}
	// Zipf weights over rows.
	weights := make([]float64, n)
	var total float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), alpha)
		total += weights[i]
	}
	budget := n * avgPerRow
	for i := 0; i < n; i++ {
		cnt := int(float64(budget) * weights[i] / total)
		if cnt < 1 {
			cnt = 1
		}
		if cnt > n {
			cnt = n
		}
		for j := 0; j < cnt; j++ {
			m.RowIdx = append(m.RowIdx, int32(i))
			m.ColIdx = append(m.ColIdx, int32(rng.Intn(n)))
			m.Vals = append(m.Vals, rng.Float64()*2-1)
		}
	}
	return m
}

// RowStats summarizes the non-zero structure of a CSR matrix — the features
// Assignment 3's statistical models are trained on.
type RowStats struct {
	Rows, Cols, NNZ   int
	MeanPerRow        float64
	MaxPerRow         int
	EmptyRows         int
	Density           float64
	RowCV             float64 // coefficient of variation of row populations
	MeanColSpan       float64 // mean (maxcol-mincol) per non-empty row
	DiagonalDominance float64 // fraction of nnz on the diagonal band +-1
}

// Stats computes RowStats for the matrix.
func (m *CSR) Stats() RowStats {
	s := RowStats{Rows: m.Rows, Cols: m.Cols, NNZ: m.NNZ()}
	if m.Rows == 0 || m.Cols == 0 {
		return s
	}
	s.Density = float64(s.NNZ) / (float64(m.Rows) * float64(m.Cols))
	var sum, sumSq, spanSum float64
	nonEmpty := 0
	diag := 0
	rp, ci := m.RowPtr, m.ColIdx
	for r := 0; r < len(rp)-1; r++ {
		cnt := int(rp[r+1] - rp[r])
		sum += float64(cnt)
		sumSq += float64(cnt) * float64(cnt)
		if cnt > s.MaxPerRow {
			s.MaxPerRow = cnt
		}
		if cnt == 0 {
			s.EmptyRows++
			continue
		}
		nonEmpty++
		minC, maxC := int32(m.Cols), int32(-1)
		for k := rp[r]; k < rp[r+1]; k++ {
			c := ci[k]
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
			d := int(c) - r
			if d >= -1 && d <= 1 {
				diag++
			}
		}
		spanSum += float64(maxC - minC)
	}
	n := float64(m.Rows)
	s.MeanPerRow = sum / n
	if n > 1 {
		variance := (sumSq - sum*sum/n) / (n - 1)
		if variance < 0 {
			variance = 0
		}
		if s.MeanPerRow > 0 {
			s.RowCV = math.Sqrt(variance) / s.MeanPerRow
		}
	}
	if nonEmpty > 0 {
		s.MeanColSpan = spanSum / float64(nonEmpty)
	}
	if s.NNZ > 0 {
		s.DiagonalDominance = float64(diag) / float64(s.NNZ)
	}
	return s
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
