package kernels

import (
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// buildGraphRef is the comparison-sort CSR construction BuildGraph
// replaced, kept as the oracle: sort the edge list by (src, dst), then
// count the rows.
func buildGraphRef(n int, edges [][2]int32) *Graph {
	sorted := append([][2]int32(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i][0] != sorted[j][0] {
			return sorted[i][0] < sorted[j][0]
		}
		return sorted[i][1] < sorted[j][1]
	})
	g := &Graph{N: n, Offset: make([]int32, n+1), Edges: make([]int32, len(sorted))}
	for i, e := range sorted {
		g.Offset[e[0]+1]++
		g.Edges[i] = e[1]
	}
	for v := 0; v < n; v++ {
		g.Offset[v+1] += g.Offset[v]
	}
	return g
}

func sameGraph(a, b *Graph) bool {
	return a.N == b.N && slices.Equal(a.Offset, b.Offset) && slices.Equal(a.Edges, b.Edges)
}

func TestBuildGraph(t *testing.T) {
	g := BuildGraph(4, [][2]int32{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	if g.N != 4 || g.M() != 4 {
		t.Fatalf("graph shape wrong: N=%d M=%d", g.N, g.M())
	}
	if g.Degree(0) != 2 || g.Degree(3) != 0 {
		t.Fatalf("degrees wrong: %d %d", g.Degree(0), g.Degree(3))
	}
}

func TestBFSChain(t *testing.T) {
	// 0 -> 1 -> 2 -> 3, plus isolated 4.
	g := BuildGraph(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}})
	dist := BFS(g, 0)
	want := []int32{0, 1, 2, 3, -1}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
}

func TestBFSGridDiameter(t *testing.T) {
	side := 9
	g := GridGraph(side)
	dist := BFS(g, 0)
	// Farthest corner is at Manhattan distance 2*(side-1).
	if got := dist[side*side-1]; got != int32(2*(side-1)) {
		t.Fatalf("corner distance = %d, want %d", got, 2*(side-1))
	}
	for _, d := range dist {
		if d < 0 {
			t.Fatal("grid graph is connected; no vertex may be unreachable")
		}
	}
}

func TestBFSParallelMatchesSequential(t *testing.T) {
	g := RandomGraph(500, 3000, 13)
	want := BFS(g, 0)
	for _, w := range []int{1, 2, 4, 16} {
		got := BFSParallel(g, 0, w)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("workers=%d vertex %d: %d != %d", w, v, got[v], want[v])
			}
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := RandomGraph(200, 1000, 3)
	rank := PageRank(g, 0.85, 30)
	var sum float64
	for _, r := range rank {
		sum += r
		if r < 0 {
			t.Fatal("negative rank")
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("ranks sum to %v", sum)
	}
}

func TestPageRankStarCenter(t *testing.T) {
	// Star: all point to vertex 0 -> vertex 0 must have the highest rank.
	var edges [][2]int32
	for v := int32(1); v < 10; v++ {
		edges = append(edges, [2]int32{v, 0})
	}
	g := BuildGraph(10, edges)
	rank := PageRank(g, 0.85, 50)
	for v := 1; v < 10; v++ {
		if rank[0] <= rank[v] {
			t.Fatalf("center rank %v not above leaf %v", rank[0], rank[v])
		}
	}
}

func TestPageRankParallelMatchesSequential(t *testing.T) {
	g := RandomGraph(300, 2000, 5)
	want := PageRank(g, 0.85, 20)
	for _, w := range []int{1, 3, 8} {
		got := PageRankParallel(g, 0.85, 20, w)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-9 {
				t.Fatalf("workers=%d vertex %d: %v != %v", w, v, got[v], want[v])
			}
		}
	}
}

func TestReverse(t *testing.T) {
	g := BuildGraph(4, [][2]int32{{0, 1}, {1, 2}, {3, 1}, {0, 1}, {2, 2}})
	r := g.Reverse()
	want := &Graph{N: 4, Offset: []int32{0, 0, 3, 5, 5}, Edges: []int32{0, 0, 3, 1, 2}}
	if !sameGraph(r, want) {
		t.Fatalf("reverse = %+v, want %+v", r, want)
	}
	if rr := r.Reverse(); !sameGraph(rr, g) {
		t.Fatalf("double reverse = %+v, want %+v", rr, g)
	}
}

// FuzzBuildGraph decodes bytes into an edge list over n vertices: the
// first byte picks n, every following byte pair is one edge. Self-loops,
// duplicate edges and isolated vertices all occur. BuildGraph and Reverse
// must match the sort-based oracle exactly, and reversing twice must give
// back the graph.
func FuzzBuildGraph(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]) % 64
		var edges [][2]int32
		for i := 1; n > 0 && i+1 < len(data); i += 2 {
			edges = append(edges, [2]int32{int32(int(data[i]) % n), int32(int(data[i+1]) % n)})
		}
		g := BuildGraph(n, edges)
		if want := buildGraphRef(n, edges); !sameGraph(g, want) {
			t.Fatalf("BuildGraph(%d, %v) = %+v, oracle %+v", n, edges, g, want)
		}
		flipped := make([][2]int32, len(edges))
		for i, e := range edges {
			flipped[i] = [2]int32{e[1], e[0]}
		}
		r := g.Reverse()
		if want := buildGraphRef(n, flipped); !sameGraph(r, want) {
			t.Fatalf("Reverse = %+v, oracle %+v", r, want)
		}
		if rr := r.Reverse(); !sameGraph(rr, g) {
			t.Fatalf("double reverse = %+v, want %+v", rr, g)
		}
	})
}

var graphSink *Graph

// allocsPerRun is testing.AllocsPerRun with the collector off: a GC cycle
// started by a large build can add a runtime allocation of its own, which
// would be charged to the function under test.
func allocsPerRun(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(5, f)
}

// TestGraphBuildAllocs pins the allocation count of the CSR builders at
// two graph sizes: a counting sort allocates the graph, its two arrays and
// one cursor, never an intermediate edge list.
func TestGraphBuildAllocs(t *testing.T) {
	for _, n := range []int{100, 20000} {
		rng := rand.New(rand.NewSource(7))
		edges := make([][2]int32, 10*n)
		for i := range edges {
			edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		}
		g := BuildGraph(n, edges)
		if a := allocsPerRun(func() { graphSink = BuildGraph(n, edges) }); a != 4 {
			t.Errorf("n=%d: BuildGraph allocates %v times, want 4", n, a)
		}
		if a := allocsPerRun(func() { graphSink = g.Reverse() }); a != 4 {
			t.Errorf("n=%d: Reverse allocates %v times, want 4", n, a)
		}
	}
}

// Property: BFS levels increase by at most 1 along any edge (triangle
// inequality on unweighted graphs).
func TestQuickBFSTriangleInequality(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomGraph(60, 240, seed)
		dist := BFS(g, 0)
		for u := 0; u < g.N; u++ {
			if dist[u] < 0 {
				continue
			}
			for k := g.Offset[u]; k < g.Offset[u+1]; k++ {
				v := g.Edges[k]
				if dist[v] < 0 || dist[v] > dist[u]+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: PageRank mass conservation holds for any random graph.
func TestQuickPageRankConservation(t *testing.T) {
	f := func(seed int64) bool {
		g := RandomGraph(50, 150, seed)
		rank := PageRank(g, 0.85, 10)
		var sum float64
		for _, r := range rank {
			sum += r
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
