package stats

import "testing"

// promotes is the autotuner's promotion rule: cand is a significant win
// over incumbent of at least minEffect.
func promotes(incumbent, cand []float64, alpha, minEffect float64) bool {
	v, err := Compare(incumbent, cand, alpha, minEffect)
	return err == nil && v.Significant && v.Shift < 0
}

func TestCompareRejectsInsignificantAndSmallWins(t *testing.T) {
	inc := []float64{100, 101, 99, 100, 100, 101, 99, 100}
	// 2% faster with tight variance: significant but below the floor.
	small := []float64{98, 98.2, 97.8, 98, 98.1, 97.9, 98, 98}
	if promotes(inc, small, 0.05, 0.05) {
		t.Error("2%% win promoted past a 5%% practical-effect floor")
	}
	// 20% faster but wildly noisy: fails significance.
	noisy := []float64{40, 160, 30, 150, 45, 140, 35, 40}
	if promotes(inc, noisy, 0.05, 0.05) {
		t.Error("insignificant noisy series promoted")
	}
	// 20% faster, tight: passes both filters.
	good := []float64{80, 80.5, 79.5, 80, 80.2, 79.8, 80, 80}
	if !promotes(inc, good, 0.05, 0.05) {
		t.Error("clear significant win rejected")
	}
}

func TestCompareShiftAndErrors(t *testing.T) {
	v, err := Compare([]float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, 0.05, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Shift < 0.19 || v.Shift > 0.21 || !v.Significant || v.T >= 0 {
		t.Fatalf("20%% slowdown: %+v", v)
	}
	// The same shift under a larger floor is not significant.
	if v, _ := Compare([]float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, 0.05, 0.25); v.Significant {
		t.Fatalf("20%% shift cleared a 25%% floor: %+v", v)
	}
	// A non-positive base mean has no relative shift.
	if v, _ := Compare([]float64{0, 0}, []float64{1, 1}, 0.05, 0); v.Shift != 0 || !v.Significant {
		t.Fatalf("zero base: %+v", v)
	}
	if _, err := Compare([]float64{1}, []float64{1, 2}, 0.05, 0); err != ErrTooFewSamples {
		t.Fatalf("one sample: err = %v", err)
	}
}
