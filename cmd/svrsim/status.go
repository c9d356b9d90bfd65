package main

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/artifact"
	"repro/internal/sim"
)

// The -status flag exposes a live view of a long sweep: the scheduler's
// cell states and instruction rate as JSON, plus the stdlib expvar and
// pprof surfaces for deeper digging, all on a loopback-bindable listener
// that shuts down gracefully with the run.

// statusSnapshot is the /status payload: the (aggregate, multi-job)
// scheduler state of one engine, its run-cache counters, and its
// artifact store's per-class accounting.
type statusSnapshot struct {
	Scheduler sim.GridStatus
	RunCache  struct{ Hits, Misses int64 }
	Artifacts artifact.Stats
}

func currentSnapshot(eng *sim.Engine) statusSnapshot {
	var s statusSnapshot
	s.Scheduler = eng.Status()
	s.Artifacts = eng.Artifacts().Stats()
	rc := s.Artifacts[artifact.Result]
	s.RunCache.Hits, s.RunCache.Misses = rc.Hits, rc.Misses
	return s
}

// writeStatusJSON renders the /status payload (shared by the -status
// server and `svrsim serve`).
func writeStatusJSON(w http.ResponseWriter, eng *sim.Engine) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(currentSnapshot(eng))
}

// addDebugRoutes registers the expvar and pprof surfaces on mux. Both
// the -status server and `svrsim serve` call this on their own private
// muxes: the stdlib's expvar/pprof init() registrations target only
// http.DefaultServeMux, so per-mux registration here is what lets both
// servers run in one process without pattern collisions. /debug/vars is
// expvar's output plus a "scheduler" key with this mux's engine
// snapshot, so two servers over two engines each report their own.
func addDebugRoutes(mux *http.ServeMux, eng *sim.Engine) {
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprint(w, "{\n")
		expvar.Do(func(kv expvar.KeyValue) {
			fmt.Fprintf(w, "%q: %s,\n", kv.Key, kv.Value)
		})
		blob, _ := json.Marshal(currentSnapshot(eng))
		fmt.Fprintf(w, "%q: %s\n}\n", "scheduler", blob)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// startStatusServer serves eng's /status (JSON scheduler snapshot),
// /debug/vars (expvar) and /debug/pprof on addr. It returns the bound
// address (resolving a ":0" port) and a shutdown that gracefully drains
// in-flight requests.
func startStatusServer(addr string, eng *sim.Engine) (bound string, shutdown func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		writeStatusJSON(w, eng)
	})
	addDebugRoutes(mux, eng)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			srv.Close()
		}
	}, nil
}
