// Fixture for fmttransitive: hot code (loops and sched parallel
// closures) reaching fmt through module-internal helpers, same-package
// and cross-package (fmttransitivedep).
package fmttransitive

import (
	"fmt"
	"os"

	dep "perfeng/internal/perfvet/testdata/src/fmttransitivedep"
	"perfeng/internal/sched"
)

// format reaches fmt directly in this package.
func format(x int) string {
	return fmt.Sprintf("%d", x)
}

// die formats on the way out and never returns: calls to it are exit
// paths, not per-iteration costs.
func die(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}

func hotLoop(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += len(format(i))                // want `call to fmttransitive\.format reaches fmt\.Sprintf on every loop iteration.*via fmttransitive\.format → fmt\.Sprintf`
		total += len(dep.Describe(i))          // want `call to fmttransitivedep\.Describe reaches fmt\.Sprintf on every loop iteration.*via fmttransitivedep\.Describe → fmt\.Sprintf`
		total += len(dep.DescribeDeep(i))      // want `call to fmttransitivedep\.DescribeDeep reaches fmt\.Sprintf.*via fmttransitivedep\.DescribeDeep → fmttransitivedep\.Describe → fmt\.Sprintf`
		total += len(dep.CondDescribe(i))      // conditional fmt in the callee: no finding
		total += dep.Plain(i)                  // no formatting anywhere: no finding
		total += len(dep.Label{N: i}.String()) // Stringer call: formatting is explicit here, no finding
		total += len(dep.Named(i))             // fmt reached only through a Stringer: edge cut, no finding
		if total < 0 {
			die("impossible") // no-return helper: an exit path, no finding
		}
	}
	return total
}

func hotParallel(xs []int) {
	sched.ParallelFor(len(xs), 64, func(lo, hi int) {
		_ = dep.Describe(lo) // want `call to fmttransitivedep\.Describe reaches fmt\.Sprintf on every parallel task`
		for i := lo; i < hi; i++ {
			xs[i] *= 2
		}
	})
}

func coldCall(x int) string {
	return dep.Describe(x) // not in a hot region: no finding
}
