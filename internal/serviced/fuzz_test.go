package serviced

import (
	"reflect"
	"testing"
)

// FuzzParseSSEFrame checks that ParseSSEFrame never panics and that
// every frame it accepts re-encodes through AppendSSE and re-parses to
// the same event. Seeds are the wire frames of the golden vectors.
func FuzzParseSSEFrame(f *testing.F) {
	for _, v := range loadVectors(f) {
		f.Add([]byte(v.Wire))
	}
	// A kind with a newline once decoded, and its re-encoded frame
	// did not parse.
	f.Add([]byte("data: {\"v\":1,\"kind\":\"x\\ndata: {}\",\"seq\":1}\n\n"))
	f.Fuzz(func(t *testing.T, frame []byte) {
		e, err := ParseSSEFrame(frame)
		if err != nil {
			return
		}
		wire := AppendSSE(nil, &e)
		again, err := ParseSSEFrame(wire)
		if err != nil {
			t.Fatalf("%q: re-encoded frame %q does not parse: %v", frame, wire, err)
		}
		if !reflect.DeepEqual(again, e) {
			t.Fatalf("%q: re-encoded frame %q parses to %+v, want %+v", frame, wire, again, e)
		}
	})
}
