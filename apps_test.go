package perfeng

import (
	"sync"
	"testing"
)

// servedShapes are the stencil and Game of Life shapes perfbench's
// jobs-kernel workload serves and the histogram and fft shapes of its
// jobs-small workload.
var servedShapes = []struct {
	name       string
	n, workers int
}{{"stencil", 512, 2}, {"gameoflife", 192, 2}, {"histogram", 64, 1}, {"fft", 256, 1}}

// variants returns an application's baseline followed by its candidates.
func variants(app *Application) []Variant {
	return append([]Variant{app.Baseline}, app.Candidates...)
}

// TestServedRepsDoNotAllocate: once an application instance has run each
// variant, a rep allocates nothing. The kernels step between the
// instance's workspace grids and boards, and the scheduler's job records
// come from its pools.
func TestServedRepsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop sched's job records at random")
	}
	for _, sh := range servedShapes {
		app, err := BuiltinApplication(sh.name, sh.n, sh.workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range variants(app) {
			v.Run() // builds the workspace's pad and row closure
			if a := testing.AllocsPerRun(10, v.Run); a != 0 {
				t.Errorf("%s/%s: a warm rep allocates %v times", app.Name, v.Name, a)
			}
		}
	}
}

// TestAppInstancesRunConcurrently runs two instances of each workspace
// application at once, one per goroutine, as perfengd's executors do
// with the instances its per-shape pool hands them. Run with -race: the
// instances share no scratch.
func TestAppInstancesRunConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for _, name := range []string{"stencil", "gameoflife", "histogram"} {
		for i := 0; i < 2; i++ {
			app, err := BuiltinApplication(name, 48, 2)
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 5; rep++ {
					for _, v := range variants(app) {
						v.Run()
					}
				}
			}()
		}
	}
	wg.Wait()
}
