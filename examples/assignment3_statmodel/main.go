// Assignment 3: statistical modeling. Collect SpMV performance data over
// several matrix families, engineer features from the non-zero structure,
// fit black-box models (OLS, ridge, k-NN, CART, random forest), cross-validate,
// and contrast their accuracy and interpretability with an analytical
// model — "the highly-explainable analytical model vs. the black-box
// statistical models".
package main

import (
	"fmt"
	"log"

	"perfeng/internal/kernels"
	"perfeng/internal/machine"
	"perfeng/internal/metrics"
	"perfeng/internal/statmodel"
)

func main() {
	runner := metrics.NewRunner(metrics.QuickConfig())

	// Stage 1: dataset collection over four structural families.
	families := []struct {
		name string
		gen  func(n int, seed int64) *kernels.COO
	}{
		{"uniform-8", func(n int, s int64) *kernels.COO { return kernels.RandomSparse(n, n, 8*n, s) }},
		{"uniform-24", func(n int, s int64) *kernels.COO { return kernels.RandomSparse(n, n, 24*n, s) }},
		{"banded", func(n int, s int64) *kernels.COO { return kernels.BandedSparse(n, 6, s) }},
		{"powerlaw", func(n int, s int64) *kernels.COO { return kernels.PowerLawSparse(n, 10, 1.5, s) }},
	}
	xs := make([][]float64, 0, len(families)*3*3)
	ys := make([]float64, 0, len(families)*3*3)
	fmt.Println("== data collection ==")
	for fi, fam := range families {
		for _, n := range []int{400, 800, 1600} {
			for rep := 0; rep < 3; rep++ {
				//perfvet:ignore:allocattr each sample needs its own matrix; converting it is set-up outside the timed SpMV
				csr := fam.gen(n, int64(fi*100+rep)).ToCSR()
				x := kernels.UniformSamples(n, 2)
				y := make([]float64, n)
				m := runner.Measure("spmv",
					kernels.SpMVFLOPs(csr.NNZ()), kernels.SpMVCSRBytes(n, csr.NNZ()),
					func() { kernels.SpMVCSR(csr, x, y) })
				xs = append(xs, statmodel.SpMVFeatures(csr))
				ys = append(ys, m.MedianSeconds()*1e6) // microseconds
			}
		}
		fmt.Printf("  family %-11s collected\n", fam.name)
	}
	fmt.Printf("  %d samples x %d features (%v)\n",
		len(xs), len(statmodel.SpMVFeatureNames), statmodel.SpMVFeatureNames)

	// Stage 2: train/test split and the model shoot-out.
	xTr, yTr, xTe, yTe, err := statmodel.Split(xs, ys, 0.3, 11)
	if err != nil {
		log.Fatal(err)
	}
	models := []statmodel.Regressor{
		&statmodel.LinearRegression{},
		&statmodel.LinearRegression{ModelName: "ridge", Ridge: 1},
		&statmodel.KNN{K: 3, Weighted: true},
		&statmodel.RegressionTree{MaxDepth: 7},
		&statmodel.RandomForest{Trees: 40, MaxDepth: 8, Seed: 3},
	}
	_, table, err := statmodel.ShootOut(models, xTr, yTr, xTe, yTe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== shoot-out (held-out test set) ==")
	fmt.Print(table)

	// Stage 3: 5-fold cross validation of the winner class.
	_, cv, err := statmodel.KFoldCV(func() statmodel.Regressor {
		return &statmodel.LinearRegression{}
	}, xs, ys, 5, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== cross validation ==")
	fmt.Println(" ", cv.String())

	// Stage 4: interpretability — the OLS coefficients are readable (the
	// one thing the forest cannot give you).
	ols := &statmodel.LinearRegression{}
	std, err := statmodel.FitStandardizer(xs)
	if err != nil {
		log.Fatal(err)
	}
	if err := ols.Fit(std.Transform(xs), ys); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== interpretability: standardized OLS coefficients ==")
	for i, name := range statmodel.SpMVFeatureNames {
		fmt.Printf("  %-18s %+9.3f us per stddev\n", name, ols.Coef[i])
	}

	// Stage 5: contrast with the analytical bandwidth model.
	cpu := machine.GenericLaptop()
	var apeSum float64
	for i := range xs {
		rows, nnz := int(xs[i][0]), int(xs[i][1])
		pred := kernels.SpMVCSRBytes(rows, nnz) / cpu.MemBandwidthBytesPerSec * 1e6
		d := pred - ys[i]
		if d < 0 {
			d = -d
		}
		apeSum += d / ys[i]
	}
	fmt.Printf("\nanalytical bandwidth-bound model: MAPE %.1f%% (explainable, structure-blind)\n",
		apeSum/float64(len(xs))*100)
	fmt.Println("lesson: the statistical models adapt to structure the analytical model")
	fmt.Println("cannot see, at the price of needing data and losing explainability.")
}
