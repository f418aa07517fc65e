// The request side of the wire: POST /v1/jobs bodies. Every in-tree
// client sends the object json.Marshal(JobSpec) writes, so one pass
// without reflection decodes that form, and any other body goes byte
// for byte to encoding/json, which stays the reference: every accept or
// reject decision, decoded value and error text is encoding/json's
// (FuzzDecodeJobSpec checks the two against each other).
package serviced

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
)

// maxJobSpecBytes bounds a request body.
const maxJobSpecBytes = 64 << 10

// readJobSpec reads a request body into buf and decodes it. A body that ends
// inside buf goes to decodeJobSpec. Any other body, and one whose read
// fails, goes to encoding/json, which reads what buf holds and then the
// rest of the body, bounded at maxJobSpecBytes in all; that is the
// decoder and the bound the handler has always read bodies through.
func readJobSpec(w http.ResponseWriter, body io.Reader, buf []byte, names *internTable) (JobSpec, error) {
	n := 0
	var err error
	for n < len(buf) && err == nil {
		var k int
		k, err = body.Read(buf[n:])
		n += k
	}
	if err == io.EOF {
		return decodeJobSpec(buf[:n], names)
	}
	rest := body
	if err != nil {
		rest = failedReader{err}
	}
	var spec JobSpec
	err = json.NewDecoder(http.MaxBytesReader(w,
		io.NopCloser(io.MultiReader(bytes.NewReader(buf[:n]), rest)), maxJobSpecBytes)).Decode(&spec)
	return spec, err
}

// failedReader replays the error that ended a body read.
type failedReader struct{ err error }

func (r failedReader) Read([]byte) (int, error) { return 0, r.err }

// decodeJobSpec decodes the first JSON value of body exactly as
// json.NewDecoder(bytes.NewReader(body)).Decode does, which is what it
// falls back to for anything but the canonical form. The canonical
// form's strings come from names.
func decodeJobSpec(body []byte, names *internTable) (JobSpec, error) {
	if spec, ok := decodeCanonicalJobSpec(body, names); ok {
		return spec, nil
	}
	var spec JobSpec
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec)
	return spec, err
}

// decodeCanonicalJobSpec parses the object json.Marshal(JobSpec) writes,
//
//	{"tenant":S,"kernel":S,"n":I,"workers":I[,"policy":S],"reps":I}
//
// with no white space, where each S holds only printable ASCII other
// than '"' and '\' and each I is an integer of at most 18 digits with no
// leading zero. encoding/json decodes such an object to the same spec.
// Like json.Decoder, it does not look past the closing brace. It
// reports false for any other body, having decided nothing.
func decodeCanonicalJobSpec(b []byte, names *internTable) (spec JobSpec, ok bool) {
	c := cursor{b: b, names: names}
	ok = c.lit(`{"tenant":`) && c.str(&spec.Tenant) &&
		c.lit(`,"kernel":`) && c.str(&spec.Kernel) &&
		c.lit(`,"n":`) && c.num(&spec.N) &&
		c.lit(`,"workers":`) && c.num(&spec.Workers) &&
		(!c.lit(`,"policy":`) || c.str(&spec.Policy)) &&
		c.lit(`,"reps":`) && c.num(&spec.Reps) &&
		c.lit(`}`)
	return spec, ok
}

// cursor reads a canonical JobSpec left to right. Each method advances
// past what it matched and reports whether it matched; on a mismatch
// the position is left where it was.
type cursor struct {
	b     []byte
	i     int
	names *internTable
}

func (c *cursor) lit(s string) bool {
	if len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

func (c *cursor) str(dst *string) bool {
	if c.i >= len(c.b) || c.b[c.i] != '"' {
		return false
	}
	for j := c.i + 1; j < len(c.b); j++ {
		switch ch := c.b[j]; {
		case ch == '"':
			*dst = c.names.intern(c.b[c.i+1 : j])
			c.i = j + 1
			return true
		case ch < 0x20 || ch > 0x7E || ch == '\\':
			return false
		}
	}
	return false
}

func (c *cursor) num(dst *int) bool {
	j := c.i
	if j < len(c.b) && c.b[j] == '-' {
		j++
	}
	start := j
	var v int64
	for ; j < len(c.b) && c.b[j] >= '0' && c.b[j] <= '9'; j++ {
		v = v*10 + int64(c.b[j]-'0')
	}
	digits := j - start
	if digits == 0 || digits > 18 || (digits > 1 && c.b[start] == '0') {
		return false
	}
	if start > c.i {
		v = -v
	}
	if int64(int(v)) != v {
		return false
	}
	*dst = int(v)
	c.i = j
	return true
}

// maxInterned bounds an internTable, so requests with ever-new names cannot
// grow it without end; past the bound, a new name is simply allocated.
const maxInterned = 256

// internTable holds the strings of canonical specs. Tenants and
// kernels repeat from job to job, so after a name's first request its
// lookup finds the string already made, and decoding allocates nothing.
// It is a copy-on-write set: lookups read the current map through one
// atomic load and never lock, and an insert, rare by design, replaces
// the map with a grown copy. The zero value is an empty table.
type internTable struct {
	mu  sync.Mutex
	cur atomic.Pointer[map[string]string]
}

func (t *internTable) intern(b []byte) string {
	if m := t.cur.Load(); m != nil {
		if s, ok := (*m)[string(b)]; ok {
			return s
		}
	}
	s := string(b)
	t.mu.Lock()
	defer t.mu.Unlock()
	var old map[string]string
	if m := t.cur.Load(); m != nil {
		old = *m
	}
	if len(old) >= maxInterned {
		return s
	}
	if prev, ok := old[s]; ok {
		return prev
	}
	next := make(map[string]string, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[s] = s
	t.cur.Store(&next)
	return s
}
