package kernels

import (
	"math"
	"strings"
	"testing"
)

// Fuzz targets: the Matrix Market reader is the one component that parses
// external input (students feed it SuiteSparse downloads), and Feedback is
// pure string logic. Both must never panic and must preserve their
// invariants on arbitrary input. The seed corpus runs as part of the
// normal test suite; `go test -fuzz` explores further.

func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 5.0\n3 1 2.0\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n")
	f.Add("%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3.0\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix coordinate real general\n-1 0 0\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n1 1 1\n9 9 1.0\n")
	f.Add("%%MatrixMarket matrix array real general\n1 1\n1.0\n")
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ReadMatrixMarket(strings.NewReader(src))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		// Accepted matrices must be internally consistent.
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted matrix fails validation: %v", err)
		}
		if m.Rows <= 0 || m.Cols <= 0 {
			t.Fatalf("accepted matrix with bad shape %dx%d", m.Rows, m.Cols)
		}
		// And must survive conversion: strictly increasing columns in every
		// CSR row, and a CSC that is exactly the transpose of the CSR.
		csr := m.ToCSR()
		if int(csr.RowPtr[csr.Rows]) != csr.NNZ() {
			t.Fatal("CSR row pointer inconsistent")
		}
		cells := make(map[[2]int32]uint64, csr.NNZ())
		for r := 0; r < csr.Rows; r++ {
			for k := csr.RowPtr[r]; k < csr.RowPtr[r+1]; k++ {
				if k > csr.RowPtr[r] && csr.ColIdx[k] <= csr.ColIdx[k-1] {
					t.Fatalf("CSR row %d columns not strictly increasing: %v", r, csr.ColIdx[csr.RowPtr[r]:csr.RowPtr[r+1]])
				}
				cells[[2]int32{int32(r), csr.ColIdx[k]}] = math.Float64bits(csr.Vals[k])
			}
		}
		csc := m.ToCSC()
		if csc.NNZ() != csr.NNZ() || int(csc.ColPtr[csc.Cols]) != csc.NNZ() {
			t.Fatalf("CSC holds %d entries, CSR %d", csc.NNZ(), csr.NNZ())
		}
		for c := 0; c < csc.Cols; c++ {
			for k := csc.ColPtr[c]; k < csc.ColPtr[c+1]; k++ {
				v, ok := cells[[2]int32{csc.RowIdx[k], int32(c)}]
				if !ok || v != math.Float64bits(csc.Vals[k]) {
					t.Fatalf("CSC (%d,%d) = %v is not in the CSR", csc.RowIdx[k], c, csc.Vals[k])
				}
			}
		}
	})
}

func FuzzFeedback(f *testing.F) {
	f.Add("apple", "apple")
	f.Add("allee", "apple")
	f.Add("speed", "abide")
	f.Add("", "")
	f.Add("abcde", "vwxyz")
	f.Fuzz(func(t *testing.T, guess, answer string) {
		code, err := Feedback(guess, answer)
		if err != nil {
			return
		}
		if code > AllCorrect {
			t.Fatalf("feedback code %d out of range", code)
		}
		// All-correct iff equal strings.
		if (code == AllCorrect) != (guess == answer) {
			t.Fatalf("identity violated for %q/%q: code %d", guess, answer, code)
		}
	})
}
