package serviced

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// vector is one committed golden test vector under testdata/vectors/:
// the exact wire bytes of an SSE frame next to the event it decodes
// to. Non-decode-only vectors also pin the encoder: re-encoding the
// event must reproduce the wire bytes exactly.
type vector struct {
	Name        string          `json:"name"`
	Description string          `json:"description"`
	Kind        Kind            `json:"kind"`
	DecodeOnly  bool            `json:"decode_only"`
	Wire        string          `json:"wire"`
	Event       json.RawMessage `json:"event"`
}

func loadVectors(t testing.TB) []vector {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "vectors", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no golden vectors under testdata/vectors/")
	}
	var out []vector
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		var v vector
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if v.Name == "" || v.Wire == "" || len(v.Event) == 0 {
			t.Fatalf("%s: vector missing name, wire or event", p)
		}
		if want := strings.TrimSuffix(filepath.Base(p), ".json"); v.Name != want {
			t.Fatalf("%s: vector name %q does not match its file name", p, v.Name)
		}
		out = append(out, v)
	}
	return out
}

// TestEveryKindHasVector is the schema-change tripwire: a kind added
// to Kinds() without a committed round-trippable golden vector fails
// here, so the wire format cannot drift unpinned.
func TestEveryKindHasVector(t *testing.T) {
	vectors := loadVectors(t)
	for _, k := range Kinds() {
		found := false
		for _, v := range vectors {
			if v.Kind == k && !v.DecodeOnly {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("kind %q has no round-trippable golden vector under testdata/vectors/", k)
		}
	}
}

// TestVectorsRoundTrip decodes every vector's wire frame, compares it
// against the expected event, and — for non-decode-only vectors —
// re-encodes the event and demands byte equality with the wire.
func TestVectorsRoundTrip(t *testing.T) {
	for _, v := range loadVectors(t) {
		t.Run(v.Name, func(t *testing.T) {
			got, err := ParseSSEFrame([]byte(v.Wire))
			if err != nil {
				t.Fatalf("decoding wire: %v", err)
			}
			var want Event
			if err := json.Unmarshal(v.Event, &want); err != nil {
				t.Fatalf("unmarshalling expected event: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded event mismatch:\n got: %+v\nwant: %+v", got, want)
			}
			if got.Kind != v.Kind {
				t.Fatalf("decoded kind %q, vector says %q", got.Kind, v.Kind)
			}
			if v.DecodeOnly {
				return
			}
			if !got.Kind.Known() {
				t.Fatalf("round-trippable vector has unknown kind %q", got.Kind)
			}
			wire := AppendSSE(nil, &want)
			if string(wire) != v.Wire {
				t.Fatalf("re-encode drifted from golden bytes:\n got: %q\nwant: %q", wire, v.Wire)
			}
		})
	}
}

// TestVectorSkew pins the forward-compatibility contract: the v2
// vector decodes under v1 (extra fields dropped, version preserved)
// and the unknown-kind vector surfaces as Known() == false.
func TestVectorSkew(t *testing.T) {
	byName := map[string]vector{}
	for _, v := range loadVectors(t) {
		byName[v.Name] = v
	}
	skew, ok := byName["version_skew_v2"]
	if !ok {
		t.Fatal("version_skew_v2 vector missing")
	}
	ev, err := ParseSSEFrame([]byte(skew.Wire))
	if err != nil {
		t.Fatalf("v1 decoder must accept a v2 frame: %v", err)
	}
	if ev.V <= SchemaVersion {
		t.Fatalf("skew vector must carry a newer version, got v=%d", ev.V)
	}
	if !ev.Kind.Known() || ev.Result == nil {
		t.Fatalf("skew vector should decode to a known result event, got %+v", ev)
	}

	unk, ok := byName["unknown_kind"]
	if !ok {
		t.Fatal("unknown_kind vector missing")
	}
	ev, err = ParseSSEFrame([]byte(unk.Wire))
	if err != nil {
		t.Fatalf("unknown kinds must decode, not error: %v", err)
	}
	if ev.Kind.Known() {
		t.Fatalf("vector kind %q unexpectedly known to this schema", ev.Kind)
	}
}

// TestDecodeEventErrors pins the malformed cases.
func TestDecodeEventErrors(t *testing.T) {
	if _, err := DecodeEvent([]byte(`{"kind":"started","seq":1}`)); err != ErrNoVersion {
		t.Fatalf("missing version: got %v, want ErrNoVersion", err)
	}
	if _, err := DecodeEvent([]byte(`{"v":1,"seq":1}`)); err == nil {
		t.Fatal("missing kind must error")
	}
	if _, err := DecodeEvent([]byte(`{"v":1,`)); err == nil {
		t.Fatal("truncated JSON must error")
	}
	if _, err := ParseSSEFrame([]byte("event: started\n")); err == nil {
		t.Fatal("frame without a data line must error")
	}
	// AppendSSE writes the kind raw into the event: line, so a control
	// character there would split or corrupt the frame.
	if _, err := DecodeEvent([]byte(`{"v":1,"kind":"x\ndata: {}","seq":1}`)); err == nil {
		t.Fatal("kind with a newline must error")
	}
}

// TestAppendJSONAgreesWithStdlib checks the hand-rolled encoder's
// output is valid JSON that the stdlib decodes back to the original
// event, including strings that force the escape slow path.
func TestAppendJSONAgreesWithStdlib(t *testing.T) {
	events := []Event{
		{V: 1, Kind: KindStarted, Job: "j1", Tenant: "acme", Seq: 2},
		{V: 1, Kind: KindError, Job: "j3", Tenant: "anon", Seq: 4,
			Message: `quote " backslash \ newline` + "\n" + `unicode é`},
		{V: 1, Kind: KindProgress, Job: "j1", Tenant: "t0", Seq: 3,
			Rep: &RepInfo{Rep: 2, Reps: 5, NS: 987654321}},
		{V: 1, Kind: KindRejected, Tenant: "t7", Seq: 1,
			Reject: &RejectInfo{Reason: ReasonRate, RetryAfterMS: 42, QueueLen: 3, Limit: 8}},
	}
	for _, want := range events {
		raw := AppendJSON(nil, &want)
		var got Event
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatalf("encoder produced invalid JSON %q: %v", raw, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stdlib decode of %q:\n got: %+v\nwant: %+v", raw, got, want)
		}
	}
}

// TestParseSSEFrameVariants covers CRLF line endings and multi-data
// concatenation per the SSE spec.
func TestParseSSEFrameVariants(t *testing.T) {
	crlf := "event: started\r\ndata: {\"v\":1,\"kind\":\"started\",\"seq\":2}\r\n"
	ev, err := ParseSSEFrame([]byte(crlf))
	if err != nil || ev.Kind != KindStarted || ev.Seq != 2 {
		t.Fatalf("CRLF frame: ev=%+v err=%v", ev, err)
	}
	multi := "data: {\"v\":1,\ndata: \"kind\":\"started\",\"seq\":2}"
	if _, err := ParseSSEFrame([]byte(multi)); err == nil {
		// Multi-data lines join with \n per spec, which here lands inside
		// the JSON — still valid JSON (whitespace), so this must decode.
		ev, _ := ParseSSEFrame([]byte(multi))
		if ev.Kind != KindStarted {
			t.Fatalf("multi-data frame decoded to %+v", ev)
		}
	} else {
		t.Fatalf("multi-data frame: %v", err)
	}
}
