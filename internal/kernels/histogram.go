package kernels

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"perfeng/internal/tune"
)

// Histogram kernels (Assignment 2): counting values into bins is the
// simplest kernel with data-dependent behaviour — the memory access pattern
// on the bin array depends on the input distribution, which is exactly why
// the assignment adds it next to matmul as a modeling challenge.

// HistogramFLOPs returns 0: the kernel does no floating-point arithmetic,
// which is itself a modeling lesson (it is bound by memory and integer ops).
func HistogramFLOPs(n int) float64 { return 0 }

// HistogramBytes returns the compulsory traffic of histogramming n float64
// samples: one read per sample plus the bin array once.
func HistogramBytes(n, bins int) float64 { return float64(n)*8 + float64(bins)*8 }

// HistogramSeq bins samples in [0,1) into len(counts) bins sequentially.
// Out-of-range samples are clamped into the edge bins.
func HistogramSeq(samples []float64, counts []int64) {
	bins := len(counts)
	for _, s := range samples {
		counts[binIndex(s, bins)]++
	}
}

func binIndex(s float64, bins int) int {
	i := int(s * float64(bins))
	if i < 0 {
		return 0
	}
	if i >= bins {
		return bins - 1
	}
	return i
}

// HistogramAtomic bins samples in parallel, with all executors
// incrementing a shared bin array using atomic adds — correct, but heavily
// contended for skewed inputs (the "false sharing / contention"
// performance pattern).
func HistogramAtomic(samples []float64, counts []int64, workers int) {
	NewHistogramWorkspace(samples, counts).Atomic(workers)
}

// HistogramPrivate bins samples in parallel with per-executor private bin
// arrays merged at the end — the standard privatization fix for the
// contention pattern.
func HistogramPrivate(samples []float64, counts []int64, workers int) {
	NewHistogramWorkspace(samples, counts).Private(workers)
}

// HistogramMutex bins samples in parallel with a single mutex around the
// shared bin array — the pessimal strategy, kept as the ablation baseline.
func HistogramMutex(samples []float64, counts []int64, workers int) {
	NewHistogramWorkspace(samples, counts).Mutex(workers)
}

// HistogramWorkspace runs the parallel histogram strategies over one
// sample set and one bin array. It keeps what they would otherwise
// allocate per call: each strategy's loop body, built on its first run,
// the mutex, and the private bin arrays, so repeated runs allocate
// nothing. Each run adds to the bins; callers clear them between runs.
// A workspace is not safe for concurrent use.
type HistogramWorkspace struct {
	samples []float64
	counts  []int64
	mu      sync.Mutex
	privs   [][]int64 // per executor, allocated on its first range
	atomic  func(lo, hi int)
	mutex   func(lo, hi int)
	private func(w, lo, hi int)
}

// NewHistogramWorkspace returns a workspace binning samples in [0,1)
// into counts.
func NewHistogramWorkspace(samples []float64, counts []int64) *HistogramWorkspace {
	return &HistogramWorkspace{samples: samples, counts: counts}
}

// Atomic runs HistogramAtomic's strategy.
func (ws *HistogramWorkspace) Atomic(workers int) {
	if ws.atomic == nil {
		ws.atomic = func(lo, hi int) {
			bins := len(ws.counts)
			for _, s := range ws.samples[lo:hi] {
				atomic.AddInt64(&ws.counts[binIndex(s, bins)], 1)
			}
		}
	}
	parForTuned(tune.KernelHistogram, len(ws.samples), workers, ws.atomic)
}

// Mutex runs HistogramMutex's strategy.
func (ws *HistogramWorkspace) Mutex(workers int) {
	if ws.mutex == nil {
		ws.mutex = func(lo, hi int) {
			bins := len(ws.counts)
			for _, s := range ws.samples[lo:hi] {
				ws.mu.Lock()
				ws.counts[binIndex(s, bins)]++
				ws.mu.Unlock()
			}
		}
	}
	parFor(len(ws.samples), workers, ws.mutex)
}

// Private runs HistogramPrivate's strategy. An executor's private array
// is allocated on its first range and kept; the merge adds each into
// the bins and zeroes it for the next run.
func (ws *HistogramWorkspace) Private(workers int) {
	if e := parExecutors(); len(ws.privs) < e {
		ws.privs = append(ws.privs, make([][]int64, e-len(ws.privs))...)
	}
	if ws.private == nil {
		ws.private = func(w, lo, hi int) {
			priv := ws.privs[w]
			if priv == nil {
				priv = make([]int64, len(ws.counts))
				ws.privs[w] = priv
			}
			for _, s := range ws.samples[lo:hi] {
				priv[binIndex(s, len(priv))]++
			}
		}
	}
	parForWorkerTuned(tune.KernelHistogram, len(ws.samples), workers, ws.private)
	for _, priv := range ws.privs {
		for i, c := range priv {
			ws.counts[i] += c
			priv[i] = 0
		}
	}
}

// UniformSamples returns n deterministic uniform samples in [0,1).
func UniformSamples(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

// SkewedSamples returns n samples concentrated near 0 (x^k of a uniform x),
// the adversarial input for contended histogram strategies: most samples
// land in a handful of bins.
func SkewedSamples(n int, k int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		x := rng.Float64()
		v := x
		for j := 1; j < k; j++ {
			v *= x
		}
		out[i] = v
	}
	return out
}

// SumAbove returns the sum of samples >= threshold using a conditional
// branch per element — the canonical branch-prediction demonstration
// kernel ("why is the sorted array faster"). Pair with a sorted vs
// shuffled input and the branch-predictor model in internal/simulator.
func SumAbove(samples []float64, threshold float64) float64 {
	var sum float64
	for _, s := range samples {
		if s >= threshold {
			sum += s
		}
	}
	return sum
}

// SumAboveBranchless computes the same sum with a branch-free select (the
// sign bit of s-threshold becomes a multiplicative 0/1 mask) — the
// standard fix for mispredict-bound loops. Requires non-NaN inputs.
func SumAboveBranchless(samples []float64, threshold float64) float64 {
	var sum float64
	for _, s := range samples {
		// sign bit of (s - threshold): 1 when s < threshold.
		below := math.Float64bits(s-threshold) >> 63
		sum += s * float64(1-below)
	}
	return sum
}

// SortedSamples returns UniformSamples sorted ascending — the predictable
// input for the branch demo.
func SortedSamples(n int, seed int64) []float64 {
	out := UniformSamples(n, seed)
	sort.Float64s(out)
	return out
}
