// The embedded monitoring endpoint: one HTTP server exposing the
// registry (OpenMetrics), liveness, the stdlib pprof handlers, and —
// when a trace source is attached — the current obs session rendered on
// demand as Chrome-trace JSON and folded stacks. This is what `perfeng
// serve` binds: scrape /metrics with Prometheus, browse
// /debug/pprof/ with go tool pprof, drag /trace.json into Perfetto,
// feed /profile.folded to a flamegraph, all while the workload runs.
package telemetry

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// TraceSource renders a live trace timeline. *obs.Session satisfies
// it; Server calls the provider on every request so a rolling workload
// loop can swap sessions between scrapes.
type TraceSource interface {
	WriteChromeTrace(w io.Writer) error
	WriteFolded(w io.Writer) error
}

// Server is the monitoring endpoint.
type Server struct {
	reg   *Registry
	trace func() TraceSource // may be nil, or return nil
	extra map[string]http.HandlerFunc
	http  *http.Server
	ln    net.Listener
}

// NewServer builds a server for the registry. trace supplies the
// current session for /trace.json and /profile.folded; pass nil when
// there is no timeline to expose (both endpoints then answer 404).
func NewServer(addr string, reg *Registry, trace func() TraceSource) *Server {
	s := &Server{reg: reg, trace: trace}
	s.http = &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	return s
}

// HandleFunc registers an extra route served alongside the built-in
// endpoints — how the flight recorder's /debug/flight dump attaches
// without this package importing it. Register before Start/Handler;
// built-in patterns cannot be overridden.
func (s *Server) HandleFunc(pattern string, fn func(http.ResponseWriter, *http.Request)) {
	if s.extra == nil {
		s.extra = make(map[string]http.HandlerFunc)
	}
	s.extra[pattern] = fn
	s.http.Handler = s.Handler()
}

// Handler returns the endpoint's routing table — also the unit-test
// surface (httptest.NewServer(srv.Handler())).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for pattern, fn := range s.extra {
		mux.HandleFunc(pattern, fn)
	}
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/trace.json", s.handleTrace)
	mux.HandleFunc("/profile.folded", s.handleFolded)
	// The stdlib pprof handlers register on DefaultServeMux; on a
	// private mux they must be wired explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", s.handleIndex)
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Render to memory first so an error can still become a clean 500
	// (nothing of the body has reached the client yet).
	var buf bytes.Buffer
	if err := s.reg.WriteOpenMetrics(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	w.Write(buf.Bytes())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) currentTrace() TraceSource {
	if s.trace == nil {
		return nil
	}
	return s.trace()
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	src := s.currentTrace()
	if src == nil {
		http.Error(w, "no trace session attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
	if err := src.WriteChromeTrace(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleFolded(w http.ResponseWriter, _ *http.Request) {
	src := s.currentTrace()
	if src == nil {
		http.Error(w, "no trace session attached", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := src.WriteFolded(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, `perfeng monitoring endpoint

  /metrics         OpenMetrics exposition (scrape me)
  /healthz         liveness probe
  /trace.json      current session, Chrome Trace Event JSON (Perfetto)
  /profile.folded  current session, folded stacks (flamegraph.pl)
  /debug/pprof/    Go pprof profiles
`)
}

// Start binds the listener and serves in the background. It returns the
// bound address (useful with ":0") after the listener is live, so a
// caller can print or scrape it immediately.
func (s *Server) Start() (string, error) {
	ln, err := net.Listen("tcp", s.http.Addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	go func() {
		if err := s.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			// Serve errors after Shutdown are expected; anything else
			// surfaces on Stop via the closed listener.
			_ = err
		}
	}()
	return ln.Addr().String(), nil
}

// Stop gracefully shuts the server down, waiting up to the context's
// deadline for in-flight scrapes.
func (s *Server) Stop(ctx context.Context) error {
	return s.http.Shutdown(ctx)
}
