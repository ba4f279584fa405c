package metrics

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"
)

// Server is the opt-in introspection listener behind -listen. It serves:
//
//	/metrics        Prometheus text exposition of the plane's registry
//	/debug/run      JSON sweep progress, ladder state, simulated-MIPS, ETA
//	/debug/machine  JSON per-tile stall heatmap + per-link hop counts
//	/debug/flight   JSON view of the flight recorder's current rings
//	/debug/build    JSON build identity (VCS revision, go version, dirty)
//	/debug/pprof/*  live Go profiles (cpu, heap, goroutine, block, mutex)
//
// Handlers only read atomic cells and mutex-protected snapshots; they never
// touch simulator state, so scraping mid-run cannot perturb cycle counts.
type Server struct {
	ln     net.Listener
	srv    *http.Server
	srvErr atomic.Pointer[error]
}

// Serve starts the listener on addr (":0" picks a free port — tests use
// this; Addr reports the bound address). Block and mutex profiling are
// enabled here, not at package init, so runs without -listen pay nothing.
// A bind failure (port taken, bad address) is returned here, synchronously
// and wrapped with the address — it never surfaces as a late goroutine
// failure mid-run. Errors from the serve loop itself latch in Err.
func Serve(addr string, plane *Plane) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	// Sampled block/mutex profiling so /debug/pprof/{block,mutex} have data.
	// Rates are modest: one blocking event per ~1ms cumulative, 1/16 mutex
	// contention events.
	runtime.SetBlockProfileRate(int(time.Millisecond.Nanoseconds()))
	runtime.SetMutexProfileFraction(16)

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = plane.Registry().WriteProm(w)
	})
	mux.HandleFunc("/debug/run", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, plane.Run().Snapshot())
	})
	mux.HandleFunc("/debug/machine", func(w http.ResponseWriter, r *http.Request) {
		snap := plane.MachineSnapshot()
		if snap == nil {
			http.Error(w, "no machine has bound to this plane yet", http.StatusNotFound)
			return
		}
		writeJSON(w, snap)
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		ws, ns, run, attempt, err := plane.Flight().snapshot()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, Bundle{
			Schema: 1, Reason: "live", WrittenAt: time.Now().UTC(),
			Run: run, Attempt: attempt, Windows: ws, Notes: ns,
		})
	})
	mux.HandleFunc("/debug/build", func(w http.ResponseWriter, r *http.Request) {
		b := CurrentBuild()
		if b == nil {
			b = &BuildInfo{GoVersion: runtime.Version()}
		}
		writeJSON(w, b)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go func() {
		// Close makes Serve return ErrServerClosed: the expected shutdown,
		// not worth latching. Anything else is a real serve-loop failure the
		// owner can surface via Err at exit.
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			werr := fmt.Errorf("metrics: serve %s: %w", ln.Addr(), err)
			s.srvErr.Store(&werr)
		}
	}()
	return s, nil
}

// Err returns the latched serve-loop error, if the background listener
// failed after a successful bind (nil otherwise, including after Close).
func (s *Server) Err() error {
	if s == nil {
		return nil
	}
	if p := s.srvErr.Load(); p != nil {
		return *p
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
