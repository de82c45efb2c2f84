package obs

import (
	"bytes"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// Server exposes a registry (and the runtime profiler) over HTTP for
// live introspection of a running search. It is started by the CLIs'
// -metrics-addr flag.
type Server struct {
	// Addr is the bound address, useful when the caller asked for ":0".
	Addr string
	srv  *http.Server
	done chan struct{} // closed when the serve goroutine exits
}

// Serve binds addr and serves, in a background goroutine:
//
//	/metrics        the registry snapshot as indented JSON
//	/debug/pprof/*  the standard Go profiling handlers
//
// The handlers are mounted on a private mux — nothing is registered on
// http.DefaultServeMux — and Close shuts the listener down.
func Serve(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	Mount(mux, reg)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s := &Server{Addr: ln.Addr().String(), srv: srv, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		// ErrServerClosed after Close; any other error just ends the
		// introspection endpoint, never the search.
		_ = srv.Serve(ln)
	}()
	return s, nil
}

// Close stops the server immediately and joins the serve goroutine, so
// a caller that has seen Close return knows no introspection goroutine
// is still touching the registry (the shutdown tests assert exactly
// that with a goroutine snapshot).
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}

// Mount registers the introspection handlers on mux:
//
//	/metrics        the registry snapshot — indented JSON by default,
//	                Prometheus text format 0.0.4 when negotiated
//	/debug/pprof/*  the standard Go profiling handlers
//
// Serve uses it on a private mux; spotlightd mounts the same endpoints
// alongside its job API so one address serves both. Mounting also
// enables the runtime collector on reg, so every scrape carries
// goroutine/heap/GC gauges.
func Mount(mux *http.ServeMux, reg *Registry) {
	reg.EnableRuntimeMetrics()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet, http.MethodHead:
		default:
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		snap := reg.Scrape()
		// The body is buffered so HEAD can answer with the same headers
		// (Content-Type, Content-Length) a GET would carry; an encode
		// error cannot happen into a bytes.Buffer, and a write error on
		// the response means the client hung up, which is its problem,
		// not the run's.
		var buf bytes.Buffer
		if wantsPrometheus(r) {
			w.Header().Set("Content-Type", PromContentType)
			_ = WritePrometheus(&buf, snap)
		} else {
			w.Header().Set("Content-Type", "application/json")
			_ = WriteJSONSnapshot(&buf, snap)
		}
		w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
		if r.Method == http.MethodHead {
			return
		}
		_, _ = w.Write(buf.Bytes())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// wantsPrometheus decides the /metrics exposition format. JSON stays
// the default (curl, the existing tests, and TestEndToEndInvariants all
// read it); the Prometheus text format is served when the client asks
// for it — `?format=prometheus`, or an Accept header naming text/plain
// or an openmetrics type, which is what real Prometheus scrapers send.
// Browsers also accept text/* via */*-less Accept lists, but a browser
// poking /metrics gets JSON unless text/plain is named explicitly.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "prom":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") || strings.Contains(accept, "openmetrics")
}
