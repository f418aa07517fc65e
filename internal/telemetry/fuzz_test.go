package telemetry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseOpenMetrics feeds arbitrary text to the exposition parser. It
// must never panic, and whatever it accepts must re-export and re-parse
// to the same family set: the parser only accepts what the writer can
// say back.
func FuzzParseOpenMetrics(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.om"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(golden))
	f.Add("# TYPE x gauge\nx 1\n# EOF\n")
	f.Add("# HELP x h\nx 1\n# TYPE x histogram\n# EOF\n")
	f.Add("# TYPE h histogram\nh_count -1\nh_sum 1e300\n# EOF\n")
	f.Add("# TYPE h histogram\nh_bucket{le=\"NaN\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"NaN\"} 3\n# EOF\n")
	f.Fuzz(func(t *testing.T, in string) {
		fams, err := ParseOpenMetrics(strings.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeFamilies(&out, fams); err != nil {
			t.Fatal(err)
		}
		again, err := ParseOpenMetrics(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-export does not parse: %v\n%s", err, out.Bytes())
		}
		// %v spells every float64 in its shortest round-trip form, NaN
		// included, so equal strings mean equal family sets.
		if a, b := fmt.Sprintf("%v", fams), fmt.Sprintf("%v", again); a != b {
			t.Fatalf("families changed over a re-export:\n got %s\nwant %s\nvia\n%s", b, a, out.Bytes())
		}
	})
}
