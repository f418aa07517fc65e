// The wire schema of the job service: every byte a client sees on the
// SSE stream comes through this file. Events are versioned (V stamps
// the schema generation), typed (Kind discriminates, with exactly one
// payload field populated per kind), and canonically encoded by a
// hand-rolled appender so the encode path allocates nothing into a
// reused buffer and the bytes are deterministic — which is what lets
// the golden test vectors under testdata/vectors/ pin the format
// byte-for-byte. Event decoding goes through encoding/json and ignores
// unknown fields, so a v+1 server can stream to a v client (the
// version-skew vectors exercise exactly that). The request side,
// POST /v1/jobs bodies, is jobspec.go's: one pass without reflection
// decodes the canonical JobSpec object, and every other body goes to
// encoding/json.
package serviced

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
)

// SchemaVersion is the wire schema generation this package encodes.
// Bump it when an event's meaning changes incompatibly; adding fields
// or kinds is compatible (decoders ignore what they don't know) and
// does not bump it — but either way the golden vectors must be updated,
// and TestEveryKindHasVector fails the build until they are.
const SchemaVersion = 1

// Kind discriminates event types on the wire.
type Kind string

// The event kinds. Every kind listed here must have at least one
// committed golden vector in testdata/vectors/ — the codec test
// enumerates Kinds() and fails on any kind without one, so a schema
// change cannot land without its vector.
const (
	// KindAccepted opens every accepted job's stream: admission verdict,
	// queue position and the sized limits at admit time.
	KindAccepted Kind = "accepted"
	// KindStarted marks the job leaving the queue for an executor.
	KindStarted Kind = "started"
	// KindProgress reports one completed repetition.
	KindProgress Kind = "progress"
	// KindResult closes a successful stream with the measured
	// repetition statistics.
	KindResult Kind = "result"
	// KindRejected is the one-shot body of a 429: why, and when to retry.
	KindRejected Kind = "rejected"
	// KindError closes a failed stream.
	KindError Kind = "error"
)

// Kinds returns every kind the schema defines, in wire-stable order.
func Kinds() []Kind {
	return []Kind{KindAccepted, KindStarted, KindProgress, KindResult, KindRejected, KindError}
}

// Known reports whether k is a kind this schema generation defines.
// Streams from newer servers may carry unknown kinds; clients skip
// them instead of failing (forward compatibility).
func (k Kind) Known() bool {
	switch k {
	case KindAccepted, KindStarted, KindProgress, KindResult, KindRejected, KindError:
		return true
	}
	return false
}

// terminal reports whether k ends a job's stream. The executor closes
// the stream after it.
func (k Kind) terminal() bool { return k == KindResult || k == KindError }

// QueueInfo is the accepted payload: where the job landed.
type QueueInfo struct {
	// Position is the number of jobs ahead of this one when it was
	// admitted (0 = an executor was free).
	Position int `json:"position"`
	// Len and Limit are the queue occupancy and the model-sized bound
	// at admit time.
	Len   int `json:"len"`
	Limit int `json:"limit"`
	// Servers is the executor count (the c of the M/M/c sizing).
	Servers int `json:"servers"`
}

// RepInfo is the progress payload: one finished repetition.
type RepInfo struct {
	Rep  int   `json:"rep"`  // 1-based
	Reps int   `json:"reps"` // total requested
	NS   int64 `json:"ns"`   // this repetition's wall time
}

// ResultInfo is the result payload: the job's measured statistics.
type ResultInfo struct {
	Kernel  string `json:"kernel"`
	Reps    int    `json:"reps"`
	WaitNS  int64  `json:"wait_ns"` // admit -> first executor cycle
	MeanNS  int64  `json:"mean_ns"`
	P50NS   int64  `json:"p50_ns"`
	P95NS   int64  `json:"p95_ns"`
	P99NS   int64  `json:"p99_ns"`
	TotalNS int64  `json:"total_ns"` // sum of repetition times
}

// RejectInfo is the rejected payload: the backpressure signal.
type RejectInfo struct {
	// Reason is "rate" (tenant token bucket empty), "queue" (bounded
	// queue full) or "closed" (service draining).
	Reason string `json:"reason"`
	// RetryAfterMS mirrors the 429's Retry-After header at millisecond
	// resolution (the header rounds up to whole seconds).
	RetryAfterMS int64 `json:"retry_after_ms"`
	QueueLen     int   `json:"queue_len"`
	Limit        int   `json:"limit"`
}

// Event is one element of a job's SSE stream. Exactly one payload
// pointer is non-nil, matching Kind; Seq numbers the stream from 1
// with no gaps, which is how the load-test client detects dropped
// events.
type Event struct {
	V      int    `json:"v"`
	Kind   Kind   `json:"kind"`
	Job    string `json:"job,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	Seq    uint64 `json:"seq"`

	Queue   *QueueInfo  `json:"queue,omitempty"`
	Rep     *RepInfo    `json:"rep,omitempty"`
	Result  *ResultInfo `json:"result,omitempty"`
	Reject  *RejectInfo `json:"reject,omitempty"`
	Message string      `json:"message,omitempty"`
}

// AppendJSON appends the canonical JSON encoding of e to b and returns
// the extended slice. Field order is fixed (v, kind, job, tenant, seq,
// payload), empty optional fields are omitted, and nothing beyond b's
// growth is allocated — the SSE hot path reuses one buffer per stream,
// and the serviced-event-encode benchmark gates the zero-alloc claim.
// The golden vectors under testdata/vectors/ pin the bytes.
func AppendJSON(b []byte, e *Event) []byte {
	b = append(b, `{"v":`...)
	b = strconv.AppendInt(b, int64(e.V), 10)
	b = append(b, `,"kind":`...)
	b = appendString(b, string(e.Kind))
	if e.Job != "" {
		b = append(b, `,"job":`...)
		b = appendString(b, e.Job)
	}
	if e.Tenant != "" {
		b = append(b, `,"tenant":`...)
		b = appendString(b, e.Tenant)
	}
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, e.Seq, 10)
	if q := e.Queue; q != nil {
		b = append(b, `,"queue":{"position":`...)
		b = strconv.AppendInt(b, int64(q.Position), 10)
		b = append(b, `,"len":`...)
		b = strconv.AppendInt(b, int64(q.Len), 10)
		b = append(b, `,"limit":`...)
		b = strconv.AppendInt(b, int64(q.Limit), 10)
		b = append(b, `,"servers":`...)
		b = strconv.AppendInt(b, int64(q.Servers), 10)
		b = append(b, '}')
	}
	if r := e.Rep; r != nil {
		b = append(b, `,"rep":{"rep":`...)
		b = strconv.AppendInt(b, int64(r.Rep), 10)
		b = append(b, `,"reps":`...)
		b = strconv.AppendInt(b, int64(r.Reps), 10)
		b = append(b, `,"ns":`...)
		b = strconv.AppendInt(b, r.NS, 10)
		b = append(b, '}')
	}
	if r := e.Result; r != nil {
		b = append(b, `,"result":{"kernel":`...)
		b = appendString(b, r.Kernel)
		b = append(b, `,"reps":`...)
		b = strconv.AppendInt(b, int64(r.Reps), 10)
		b = append(b, `,"wait_ns":`...)
		b = strconv.AppendInt(b, r.WaitNS, 10)
		b = append(b, `,"mean_ns":`...)
		b = strconv.AppendInt(b, r.MeanNS, 10)
		b = append(b, `,"p50_ns":`...)
		b = strconv.AppendInt(b, r.P50NS, 10)
		b = append(b, `,"p95_ns":`...)
		b = strconv.AppendInt(b, r.P95NS, 10)
		b = append(b, `,"p99_ns":`...)
		b = strconv.AppendInt(b, r.P99NS, 10)
		b = append(b, `,"total_ns":`...)
		b = strconv.AppendInt(b, r.TotalNS, 10)
		b = append(b, '}')
	}
	if r := e.Reject; r != nil {
		b = append(b, `,"reject":{"reason":`...)
		b = appendString(b, r.Reason)
		b = append(b, `,"retry_after_ms":`...)
		b = strconv.AppendInt(b, r.RetryAfterMS, 10)
		b = append(b, `,"queue_len":`...)
		b = strconv.AppendInt(b, int64(r.QueueLen), 10)
		b = append(b, `,"limit":`...)
		b = strconv.AppendInt(b, int64(r.Limit), 10)
		b = append(b, '}')
	}
	if e.Message != "" {
		b = append(b, `,"message":`...)
		b = appendString(b, e.Message)
	}
	return append(b, '}')
}

// AppendSSE appends the full SSE frame for e — event: line, data: line,
// blank terminator — to b. Same allocation contract as AppendJSON.
func AppendSSE(b []byte, e *Event) []byte {
	b = append(b, "event: "...)
	b = append(b, e.Kind...)
	b = append(b, "\ndata: "...)
	b = AppendJSON(b, e)
	return append(b, "\n\n"...)
}

// appendString appends s as a JSON string literal. Job ids, tenants and
// kernel names are plain ASCII identifiers, so the fast path copies
// bytes; anything needing escapes takes the stdlib marshal path (an
// allocation, but off the hot path by construction).
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x7F {
			esc, _ := json.Marshal(s)
			return append(b, esc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// ErrNoVersion marks a data payload without a schema version — not an
// event from any generation of this schema.
var ErrNoVersion = errors.New("serviced: event payload has no schema version")

// DecodeEvent parses one data payload. Unknown fields are ignored and
// unknown kinds are preserved (check Kind.Known()), so clients keep
// working across compatible schema growth; a missing or non-positive
// version, or a kind with a control character, is malformed.
func DecodeEvent(data []byte) (Event, error) {
	var e Event
	if err := json.Unmarshal(data, &e); err != nil {
		return Event{}, fmt.Errorf("serviced: decoding event: %w", err)
	}
	if e.V <= 0 {
		return Event{}, ErrNoVersion
	}
	if e.Kind == "" {
		return Event{}, errors.New("serviced: event has no kind")
	}
	// AppendSSE writes the kind raw into the event: line.
	for i := 0; i < len(e.Kind); i++ {
		if e.Kind[i] < 0x20 {
			return Event{}, fmt.Errorf("serviced: event kind %q has a control character", e.Kind)
		}
	}
	return e, nil
}

// ParseSSEFrame extracts and decodes the data payload of one SSE frame
// (the bytes between blank-line terminators). Comment lines and the
// event: name line are skipped; multiple data: lines concatenate per
// the SSE spec.
var (
	sseLF         = []byte("\n")
	sseCR         = []byte("\r")
	sseDataPrefix = []byte("data:")
	sseSpace      = []byte(" ")
)

func ParseSSEFrame(frame []byte) (Event, error) {
	var data []byte
	for _, line := range bytes.Split(frame, sseLF) {
		line = bytes.TrimSuffix(line, sseCR)
		rest, ok := bytes.CutPrefix(line, sseDataPrefix)
		if !ok {
			continue
		}
		rest = bytes.TrimPrefix(rest, sseSpace)
		if data != nil {
			data = append(data, '\n')
		}
		data = append(data, rest...)
	}
	if data == nil {
		return Event{}, errors.New("serviced: SSE frame has no data line")
	}
	return DecodeEvent(data)
}
