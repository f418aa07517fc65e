package flight

import (
	"math"
	"testing"
)

// FuzzParseObjective feeds arbitrary -slo text to the objective parser.
// It must never panic, every objective it accepts must have a finite
// threshold and a quantile in [0, 1], and parsing its Raw text again
// must give the same objective.
func FuzzParseObjective(f *testing.F) {
	for _, c := range objectiveCases {
		f.Add(c.in)
	}
	for _, bad := range badObjectives {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, in string) {
		o, err := ParseObjective(in)
		if err != nil {
			return
		}
		if math.IsNaN(o.Threshold) || math.IsInf(o.Threshold, 0) {
			t.Fatalf("%q: threshold %v is not finite", in, o.Threshold)
		}
		if !(o.Q >= 0 && o.Q <= 1) {
			t.Fatalf("%q: quantile %v outside [0, 1]", in, o.Q)
		}
		again, err := ParseObjective(o.Raw)
		if err != nil {
			t.Fatalf("%q: Raw %q does not parse: %v", in, o.Raw, err)
		}
		if again != o {
			t.Fatalf("%q: Raw %q parses to %+v, want %+v", in, o.Raw, again, o)
		}
	})
}
