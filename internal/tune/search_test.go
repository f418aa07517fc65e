package tune

import (
	"math/rand"
	"testing"

	"perfeng/internal/stats"
)

// fakeSurface is a deterministic noisy cost model: every config has a
// fixed true mean drawn once per seed, and samples are the mean plus
// bounded multiplicative noise from a per-call RNG. It lets the
// property test sweep many random landscapes without touching a clock.
type fakeSurface struct {
	rng   *rand.Rand
	noise float64
	means map[Config]float64
}

func newFakeSurface(seed int64, noise float64) *fakeSurface {
	return &fakeSurface{
		rng:   rand.New(rand.NewSource(seed)),
		noise: noise,
		means: map[Config]float64{},
	}
}

func (f *fakeSurface) measurer() Measurer {
	return func(cfg Config, reps int) ([]float64, error) {
		mean, ok := f.means[cfg]
		if !ok {
			// True cost in [50µs, 150µs), fixed per config.
			mean = 50e3 + f.rng.Float64()*100e3
			f.means[cfg] = mean
		}
		out := make([]float64, reps)
		for i := range out {
			out[i] = mean * (1 + f.noise*(2*f.rng.Float64()-1))
		}
		return out, nil
	}
}

// TestSearchNeverPromotesRejected is the promotion-discipline property:
// across randomized cost surfaces — including very noisy ones where
// halving's mean ranking is unreliable — every champion replacement the
// search applied must carry a Welch verdict that passes the comparator,
// and the final Improved claim must re-verify against the recorded
// sample series. Halving may prune good configs (that is its cheap
// mistake), but a statistically unjustified config must never be
// installed.
func TestSearchNeverPromotesRejected(t *testing.T) {
	grid := GridSpec{
		Policies: []string{"", "static", "guided"},
		Grains:   []int{0, 8, 64, 512},
		Workers:  []int{1, 2, 4},
		Tiles:    []int{16, 64},
	}.Build()
	const alpha, minEffect = 0.05, 0.05

	for seed := int64(0); seed < 50; seed++ {
		// Odd seeds get noise comparable to the effect floor, where a
		// sloppy promotion rule would trip.
		noise := 0.01
		if seed%2 == 1 {
			noise = 0.08
		}
		surf := newFakeSurface(seed, noise)
		res, err := Search("fake", 100, Config{}, grid, surf.measurer(),
			Options{Alpha: alpha, MinEffect: minEffect})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, p := range res.Promotions {
			if !p.Welch.Significant(alpha) {
				t.Errorf("seed %d: promotion %d (%s -> %s) not significant: p=%g",
					seed, i, p.From, p.To, p.Welch.P)
			}
			if p.Delta < minEffect {
				t.Errorf("seed %d: promotion %d (%s -> %s) below effect floor: delta=%g",
					seed, i, p.From, p.To, p.Delta)
			}
		}
		if res.Improved {
			if len(res.Promotions) == 0 {
				t.Errorf("seed %d: Improved without any recorded promotion", seed)
			}
			if v, _ := stats.Compare(res.DefaultSamples, res.BestSamples, alpha, minEffect); !v.Significant || v.Shift > 0 {
				t.Errorf("seed %d: Improved but best-vs-default fails the comparator (p=%g, speedup=%.3f)",
					seed, res.Welch.P, res.Speedup)
			}
		} else if res.Best != res.Default {
			t.Errorf("seed %d: not Improved but Best %s != Default %s", seed, res.Best, res.Default)
		}
	}
}

// TestSearchFindsPlantedOptimum checks the engine actually optimizes: on
// a low-noise surface with one config 3x faster than everything else,
// the search must find and promote it.
func TestSearchFindsPlantedOptimum(t *testing.T) {
	grid := GridSpec{
		Policies: []string{"", "static", "guided"},
		Grains:   []int{0, 8, 64},
		Tiles:    []int{16, 64},
	}.Build()
	best := Config{Policy: "guided", Grain: 64, Tile: 16}

	surf := newFakeSurface(7, 0.005)
	inner := surf.measurer()
	if _, err := inner(best, 2); err != nil { // materialize, then plant
		t.Fatal(err)
	}
	surf.means[best] = 20e3
	surf.means[Config{}] = 60e3

	res, err := Search("fake", 100, Config{}, grid, inner, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != best {
		t.Fatalf("planted optimum %s not found; got %s (speedup %.2f)", best, res.Best, res.Speedup)
	}
	if !res.Improved || res.Speedup < 2 {
		t.Fatalf("planted 3x win reported as Improved=%v speedup=%.2f", res.Improved, res.Speedup)
	}
}

// TestSearchTieKeepsDefaults: when every config costs the same, the
// defaults must survive and the result must be an explicit match
// (speedup 1, Best == Default) — the beat-or-match contract.
func TestSearchTieKeepsDefaults(t *testing.T) {
	grid := GridSpec{Policies: []string{"static", "guided"}, Grains: []int{8, 64}}.Build()
	flat := func(cfg Config, reps int) ([]float64, error) {
		out := make([]float64, reps)
		for i := range out {
			out[i] = 100e3
		}
		return out, nil
	}
	res, err := Search("fake", 100, Config{}, grid, flat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Improved || res.Best != (Config{}) || res.Speedup != 1 {
		t.Fatalf("flat surface: Improved=%v Best=%s Speedup=%.2f, want defaults kept",
			res.Improved, res.Best, res.Speedup)
	}
}
