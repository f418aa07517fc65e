package kernels

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestDenseBasics(t *testing.T) {
	m := NewDense(3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("At/Set broken")
	}
	c := m.Clone()
	c.Set(0, 0, 1)
	if m.At(0, 0) != 0 {
		t.Fatal("Clone is not deep")
	}
	if d := m.MaxAbsDiff(c); d != 1 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
	if !math.IsInf(m.MaxAbsDiff(NewDense(2)), 1) {
		t.Fatal("size mismatch should be +Inf")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewDense(0) must panic")
		}
	}()
	NewDense(0)
}

func TestRandomDenseDeterministic(t *testing.T) {
	a := RandomDense(16, 42)
	b := RandomDense(16, 42)
	if a.MaxAbsDiff(b) != 0 {
		t.Fatal("same seed must give same matrix")
	}
	c := RandomDense(16, 43)
	if a.MaxAbsDiff(c) == 0 {
		t.Fatal("different seeds should differ")
	}
}

// matmulRef is an independently coded reference (jik order, indexed access).
func matmulRef(a, b *Dense) *Dense {
	n := a.N
	c := NewDense(n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func TestAllMatMulVariantsAgree(t *testing.T) {
	for _, n := range []int{1, 2, 7, 16, 33, 64} {
		a := RandomDense(n, int64(n))
		b := RandomDense(n, int64(n)+100)
		want := matmulRef(a, b)
		for _, v := range MatMulVariants(8, 3) {
			c := NewDense(n)
			v.Run(a, b, c)
			if d := c.MaxAbsDiff(want); d > 1e-9 {
				t.Errorf("n=%d variant %s: max diff %v", n, v.Name, d)
			}
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	n := 12
	a := RandomDense(n, 5)
	id := NewDense(n)
	for i := 0; i < n; i++ {
		id.Set(i, i, 1)
	}
	c := NewDense(n)
	MatMulIKJ(a, id, c)
	if c.MaxAbsDiff(a) > 1e-12 {
		t.Fatal("A*I != A")
	}
	MatMulTiled(id, a, c, 5)
	if c.MaxAbsDiff(a) > 1e-12 {
		t.Fatal("I*A != A")
	}
}

func TestMatMulTileEdgeCases(t *testing.T) {
	n := 10
	a, b := RandomDense(n, 1), RandomDense(n, 2)
	want := matmulRef(a, b)
	for _, tile := range []int{-1, 0, 1, 3, 10, 99} {
		c := NewDense(n)
		MatMulTiled(a, b, c, tile)
		if c.MaxAbsDiff(want) > 1e-9 {
			t.Errorf("tile=%d wrong result", tile)
		}
	}
}

func TestMatMulParallelWorkerCounts(t *testing.T) {
	n := 17
	a, b := RandomDense(n, 3), RandomDense(n, 4)
	want := matmulRef(a, b)
	for _, w := range []int{-1, 1, 2, 5, 17, 64} {
		c := NewDense(n)
		MatMulParallel(a, b, c, w)
		if c.MaxAbsDiff(want) > 1e-9 {
			t.Errorf("workers=%d wrong result", w)
		}
		c2 := NewDense(n)
		MatMulParallelTiled(a, b, c2, w, 4)
		if c2.MaxAbsDiff(want) > 1e-9 {
			t.Errorf("parallel-tiled workers=%d wrong result", w)
		}
	}
}

func TestMatMulSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch must panic")
		}
	}()
	MatMulNaive(NewDense(3), NewDense(4), NewDense(3))
}

func TestMatMulWorkCharacterization(t *testing.T) {
	if MatMulFLOPs(10) != 2000 {
		t.Fatalf("FLOPs = %v", MatMulFLOPs(10))
	}
	if MatMulCompulsoryBytes(10) != 2400 {
		t.Fatalf("Bytes = %v", MatMulCompulsoryBytes(10))
	}
}

// Property: matmul distributes over addition, (A+A)*B == 2*(A*B).
func TestQuickMatMulLinearity(t *testing.T) {
	f := func(seed int64) bool {
		n := 8
		a := RandomDense(n, seed)
		b := RandomDense(n, seed+1)
		a2 := a.Clone()
		for i := range a2.Data {
			a2.Data[i] *= 2
		}
		c1, c2 := NewDense(n), NewDense(n)
		MatMulIKJ(a, b, c1)
		MatMulIKJ(a2, b, c2)
		for i := range c1.Data {
			if math.Abs(c2.Data[i]-2*c1.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestMatMulTiledBitIdentical: tiling changes the loop order over i and
// j tiles but every c[i][j] still accumulates its products in ascending
// k, so both tiled kernels must equal MatMulIKJ exactly, not just within
// a tolerance. c starts dirty to check that the kernels zero it.
func TestMatMulTiledBitIdentical(t *testing.T) {
	for _, n := range []int{1, 7, 65, 130} {
		a, b := RandomDense(n, int64(n)), RandomDense(n, int64(n)+1)
		want := NewDense(n)
		MatMulIKJ(a, b, want)
		check := func(name string, c *Dense) {
			t.Helper()
			for i, v := range want.Data {
				if c.Data[i] != v {
					t.Fatalf("n=%d %s: c[%d][%d] = %v, MatMulIKJ %v", n, name, i/n, i%n, c.Data[i], v)
				}
			}
		}
		for _, tile := range []int{1, 3, 64} {
			c := RandomDense(n, 99)
			MatMulTiled(a, b, c, tile)
			check(fmt.Sprintf("tiled tile=%d", tile), c)
			for _, w := range []int{0, 2, 3} {
				c := RandomDense(n, 99)
				MatMulParallelTiled(a, b, c, w, tile)
				check(fmt.Sprintf("parallel-tiled tile=%d workers=%d", tile, w), c)
			}
		}
	}
}
