package obs

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadChromeTrace feeds arbitrary JSON to the Chrome-trace importer.
// It must never panic, and whatever it accepts must be a fixed point of
// import→export→import: exporting the imported session and importing
// that export again yields the same export, byte for byte.
func FuzzReadChromeTrace(f *testing.F) {
	f.Add(goldenChromeTrace)
	f.Add(`{"traceEvents":[{"name":"x","ph":"X","ts":1.5,"dur":2,"pid":1,"tid":3}]}`)
	f.Add(`{"traceEvents":[{"name":"x","ph":"X","ts":-5,"dur":-2,"tid":1},{"name":"y","ph":"i","ts":1e300,"tid":2}]}`)
	f.Add(`{"traceEvents":[{"name":"thread_name","ph":"M","tid":1,"args":{"name":"a"}},{"name":"thread_name","ph":"M","tid":2,"args":{"name":"a"}},{"name":"x","ph":"X","ts":1,"tid":2},{"name":"c","ph":"C","ts":3e18,"args":{"value":1e308}}]}`)
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ReadChromeTrace(strings.NewReader(in))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := s.WriteChromeTrace(&first); err != nil {
			t.Fatalf("imported session does not export: %v", err)
		}
		again, err := ReadChromeTrace(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("export does not re-import: %v\n%s", err, first.Bytes())
		}
		if err := again.WriteChromeTrace(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("import→export→import is not a fixed point:\n--- first ---\n%s\n--- second ---\n%s",
				first.Bytes(), second.Bytes())
		}
	})
}
