// Command spmvmodel runs the Assignment 3 pipeline end to end: generate
// SpMV datasets across matrix families, measure CSR SpMV on each, engineer
// features from the non-zero structure, fit the statistical models, and
// compare their prediction accuracy against a calibrated analytical
// (roofline-bound) model.
//
// Usage:
//
//	spmvmodel                 # default sweep
//	spmvmodel -sizes 500,1000,2000 -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"perfeng/internal/kernels"
	"perfeng/internal/machine"
	"perfeng/internal/metrics"
	"perfeng/internal/statmodel"
)

func main() {
	var (
		sizesFlag = flag.String("sizes", "500,1000,2000,4000", "matrix sizes to sweep")
		quick     = flag.Bool("quick", true, "fast measurement protocol")
		seed      = flag.Int64("seed", 1, "dataset seed")
	)
	flag.Parse()

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fatal(err)
	}

	cfg := metrics.DefaultConfig()
	if *quick {
		cfg = metrics.QuickConfig()
	}
	runner := metrics.NewRunner(cfg)

	// Dataset families x sizes: measure CSR SpMV, collect features.
	type sample struct {
		features []float64
		seconds  float64
		nnz      int
	}
	families := []struct {
		name string
		gen  func(n int, seed int64) *kernels.COO
	}{
		{"uniform-8", func(n int, s int64) *kernels.COO { return kernels.RandomSparse(n, n, 8*n, s) }},
		{"uniform-32", func(n int, s int64) *kernels.COO { return kernels.RandomSparse(n, n, 32*n, s) }},
		{"banded-4", func(n int, s int64) *kernels.COO { return kernels.BandedSparse(n, 4, s) }},
		{"powerlaw", func(n int, s int64) *kernels.COO { return kernels.PowerLawSparse(n, 12, 1.4, s) }},
	}
	// Three seeds per family x size keep the training set comfortably
	// larger than the feature count (the OLS fit needs rows > columns —
	// itself an Assignment 3 lesson about collecting enough data).
	const seedsPerCell = 3
	samples := make([]sample, 0, len(families)*len(sizes)*seedsPerCell)
	fmt.Println("collecting training data (CSR SpMV per family x size x seed):")
	for fi, fam := range families {
		for _, n := range sizes {
			for rep := 0; rep < seedsPerCell; rep++ {
				//perfvet:ignore:allocattr each sample needs its own matrix; converting it is set-up outside the timed SpMV
				csr := fam.gen(n, *seed+int64(fi*seedsPerCell+rep)).ToCSR()
				x := kernels.UniformSamples(n, 3)
				y := make([]float64, n)
				m := runner.Measure(fam.name+"-n"+strconv.Itoa(n)+"-s"+strconv.Itoa(rep),
					kernels.SpMVFLOPs(csr.NNZ()), kernels.SpMVCSRBytes(n, csr.NNZ()),
					func() { kernels.SpMVCSR(csr, x, y) })
				samples = append(samples, sample{
					features: statmodel.SpMVFeatures(csr),
					seconds:  m.MedianSeconds(),
					nnz:      csr.NNZ(),
				})
				if rep == 0 {
					fmt.Printf("  %-14s n=%-6d nnz=%-8d %s\n",
						fam.name, n, csr.NNZ(), metrics.FormatSeconds(m.MedianSeconds()))
				}
			}
		}
	}

	xs := make([][]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.features
		ys[i] = s.seconds * 1e6 // microseconds keep the targets O(1..1e4)
	}
	xTr, yTr, xTe, yTe, err := statmodel.Split(xs, ys, 0.3, 7)
	if err != nil {
		fatal(err)
	}

	models := []statmodel.Regressor{
		&statmodel.LinearRegression{},
		&statmodel.LinearRegression{ModelName: "ridge", Ridge: 1},
		&statmodel.KNN{K: 3, Weighted: true},
		&statmodel.RegressionTree{MaxDepth: 6},
		&statmodel.RandomForest{Trees: 40, MaxDepth: 8, Seed: 5},
	}
	_, table, err := statmodel.ShootOut(models, xTr, yTr, xTe, yTe)
	if err != nil {
		fatal(err)
	}
	fmt.Println()
	fmt.Print(table)

	// Analytical contrast: the roofline-bound model predicts time from
	// nnz and bandwidth alone — interpretable, but blind to structure.
	cpu := machine.GenericLaptop()
	var apeSum float64
	for _, s := range samples {
		bytes := kernels.SpMVCSRBytes(int(s.features[0]), s.nnz)
		pred := bytes / cpu.MemBandwidthBytesPerSec * 1e6
		ape := abs(pred-s.seconds*1e6) / (s.seconds * 1e6)
		apeSum += ape
	}
	fmt.Printf("\nanalytical bandwidth-bound model: MAPE %.1f%% over all %d samples\n",
		apeSum/float64(len(samples))*100, len(samples))
	fmt.Println("(interpretable but structure-blind — the Assignment 3 contrast)")
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// parseSizes parses the comma-separated -sizes flag.
func parseSizes(flagVal string) ([]int, error) {
	parts := strings.Split(flagVal, ",")
	sizes := make([]int, 0, len(parts))
	for _, s := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v < 10 {
			return nil, fmt.Errorf("bad size %q", s)
		}
		sizes = append(sizes, v)
	}
	return sizes, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spmvmodel:", err)
	os.Exit(1)
}
