package benchgate

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseGoBench feeds arbitrary text to the go test -bench parser. It
// must never panic, and every result set it accepts must survive a
// baseline round trip (FromResultSet, Save, LoadBaseline) unchanged.
func FuzzParseGoBench(f *testing.F) {
	f.Add(sampleOutput)
	f.Add(malformedOutput)
	for _, line := range strings.Split(malformedOutput, "\n") {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, in string) {
		rs, err := ParseGoBench(strings.NewReader(in))
		if err != nil || rs.Len() == 0 {
			return
		}
		want := FromResultSet(rs, Protocol{}, "")
		path := filepath.Join(t.TempDir(), "BENCH_1.json")
		if err := want.Save(path); err != nil {
			t.Fatalf("accepted result set does not save: %v\n%q", err, in)
		}
		got, err := LoadBaseline(path)
		if err != nil {
			t.Fatalf("saved baseline does not load: %v\n%q", err, in)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("baseline changed over a round trip:\n got %+v\nwant %+v\nfrom %q", got, want, in)
		}
	})
}
