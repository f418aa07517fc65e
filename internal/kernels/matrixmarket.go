package kernels

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Matrix Market I/O. The paper's artifact notes that the assignment
// frameworks include "open-source code for reading matrices in the matrix
// market format"; this file provides the equivalent reader/writer for the
// coordinate (sparse) format, including the general/symmetric and
// real/integer/pattern qualifiers that SuiteSparse matrices use.

// ReadMatrixMarket parses a Matrix Market coordinate stream into a COO
// matrix. Symmetric/skew-symmetric matrices are expanded to general form.
// Pattern matrices get value 1 for every stored entry.
func ReadMatrixMarket(r io.Reader) (*COO, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)

	if !sc.Scan() {
		return nil, fmt.Errorf("kernels: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" {
		return nil, fmt.Errorf("kernels: bad MatrixMarket banner %q", sc.Text())
	}
	if header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("kernels: unsupported MatrixMarket object/format %q", sc.Text())
	}
	field, symmetry := header[3], header[4]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("kernels: unsupported field %q", field)
	}
	switch symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("kernels: unsupported symmetry %q", symmetry)
	}

	// Skip comments; first non-comment line is the size line.
	var rows, cols, nnz int
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("kernels: missing MatrixMarket size line")
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("kernels: bad size line %q: %w", line, err)
		}
		break
	}
	if rows <= 0 || cols <= 0 || nnz < 0 {
		return nil, fmt.Errorf("kernels: invalid dimensions %dx%d nnz=%d", rows, cols, nnz)
	}
	if symmetry != "general" && rows != cols {
		// The mirrored entry (j,i) of a non-square matrix is out of range.
		return nil, fmt.Errorf("kernels: %s matrix must be square, have %dx%d", symmetry, rows, cols)
	}

	m := &COO{Rows: rows, Cols: cols}
	read := 0
	for read < nnz {
		if !sc.Scan() {
			return nil, fmt.Errorf("kernels: truncated MatrixMarket data: %d of %d entries", read, nnz)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		want := 3
		if field == "pattern" {
			want = 2
		}
		if len(fields) < want {
			return nil, fmt.Errorf("kernels: short MatrixMarket entry %q", line)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("kernels: bad row index %q: %w", fields[0], err)
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("kernels: bad col index %q: %w", fields[1], err)
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("kernels: MatrixMarket entry (%d,%d) out of range", i, j)
		}
		v := 1.0
		if field != "pattern" {
			v, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("kernels: bad value %q: %w", fields[2], err)
			}
		}
		m.RowIdx = append(m.RowIdx, int32(i-1))
		m.ColIdx = append(m.ColIdx, int32(j-1))
		m.Vals = append(m.Vals, v)
		if symmetry != "general" && i != j {
			sv := v
			if symmetry == "skew-symmetric" {
				sv = -v
			}
			m.RowIdx = append(m.RowIdx, int32(j-1))
			m.ColIdx = append(m.ColIdx, int32(i-1))
			m.Vals = append(m.Vals, sv)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// WriteMatrixMarket writes the matrix in general real coordinate format.
func WriteMatrixMarket(w io.Writer, m *COO) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for k := range m.Vals {
		if _, err := fmt.Fprintf(bw, "%d %d %.17g\n",
			m.RowIdx[k]+1, m.ColIdx[k]+1, m.Vals[k]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
