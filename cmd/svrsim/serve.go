package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// defaultStateFile is where the queue state is persisted on a graceful
// shutdown (serve's -state flag overrides it).
const defaultStateFile = "svrsim-state.json"

// handleDrainSignals installs a SIGINT/SIGTERM handler implementing the
// graceful-shutdown contract of the -status server: drain s's running
// cells, persist its queue state, run pre (extra teardown, may be nil),
// exit 0. The returned stop function uninstalls the handler.
func handleDrainSignals(statePath string, s *grid.Scheduler, pre func()) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "\nsvrsim: %s: draining running cells...\n", sig)
		s.Shutdown()
		if statePath != "" {
			if err := s.SaveState(statePath); err != nil {
				fmt.Fprintf(os.Stderr, "svrsim: persisting queue state: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "svrsim: queue state saved to %s\n", statePath)
			}
		}
		if pre != nil {
			pre()
		}
		os.Exit(0)
	}()
	return func() {
		signal.Stop(ch)
		close(ch)
	}
}

// cmdServe runs the multi-tenant grid service: a grid scheduler behind
// an HTTP/JSON API (submit grids, stream per-cell results,
// poll/cancel/resume jobs), plus the /status, /metrics and /debug
// observability surfaces. SIGINT/SIGTERM shuts down gracefully: running
// cells drain, the queue state is persisted, and the process exits 0.
func cmdServe(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "cell worker pool size (default GOMAXPROCS)")
	queueCap := fs.Int("queue", 0, "max queued cells across all jobs (default 4096)")
	stateF := fs.String("state", defaultStateFile, "queue-state file: restored on start, persisted on shutdown (empty disables)")
	journalF := fs.String("journal", "", "stream the scheduler lifecycle journal (JSONL) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The server's engine always journals into a bounded in-memory ring
	// so GET /api/jobs/{id}/trace can render any recent job; -journal
	// additionally streams the full event stream to disk.
	jcfg := grid.JournalConfig{Capture: serveJournalRing}
	var jf *os.File
	if *journalF != "" {
		f, err := os.Create(*journalF)
		if err != nil {
			return err
		}
		jf = f
		jcfg.Writer = f
	}
	jn := grid.NewJournal(jcfg)
	s := grid.New(grid.Options{Engine: sim.NewEngine(jn), Workers: *workers, QueueCap: *queueCap})
	defer func() {
		if err := jn.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "svrsim: journal: %v\n", err)
		}
		if jf != nil {
			jf.Close()
		}
	}()

	if *stateF != "" {
		n, err := s.LoadState(*stateF)
		if err != nil {
			fmt.Fprintf(os.Stderr, "svrsim: restoring queue state: %v\n", err)
		} else if n > 0 {
			fmt.Fprintf(w, "svrsim: restored %d unfinished job(s) from %s\n", n, *stateF)
		}
	}

	mux := newServeMux(s)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Request contexts derive from serveCtx: canceling it unblocks every
	// streaming client during shutdown.
	serveCtx, cancelRequests := context.WithCancel(context.Background())
	defer cancelRequests()
	srv := &http.Server{
		Handler:     mux,
		BaseContext: func(net.Listener) context.Context { return serveCtx },
	}
	fmt.Fprintf(w, "svrsim: serving on http://%s (POST /api/jobs, /api/status, /status, /metrics)\n",
		ln.Addr())

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-done:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(w, "svrsim: %s: draining running cells...\n", sig)
	}
	s.Shutdown()
	if *stateF != "" {
		if err := s.SaveState(*stateF); err != nil {
			fmt.Fprintf(os.Stderr, "svrsim: persisting queue state: %v\n", err)
		} else {
			fmt.Fprintf(w, "svrsim: queue state saved to %s\n", *stateF)
		}
	}
	cancelRequests()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
	fmt.Fprintln(w, "svrsim: shutdown complete")
	return nil
}

// serveJournalRing bounds the in-memory journal capture backing the
// GET /api/jobs/{id}/trace endpoint: enough for the recent jobs' full
// event streams without growing with server uptime.
const serveJournalRing = 1 << 16

// newServeMux assembles `svrsim serve`'s routes on a private ServeMux —
// never the process-global http.DefaultServeMux — so a serve mux and a
// -status mux (startStatusServer) can coexist in one process without
// double-registering each other's patterns. The debug surfaces are
// per-mux too, via addDebugRoutes.
func newServeMux(s *grid.Scheduler) *http.ServeMux {
	// The artifact store's hit/miss/evict counters live in a metrics
	// registry, served in Prometheus text format on /metrics alongside
	// the scheduler's queue-wait and per-phase latency histograms.
	eng := s.Engine()
	reg := metrics.New()
	eng.Artifacts().Register(reg, "artifact")

	mux := http.NewServeMux()
	mux.Handle("/api/", s.Handler())
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		writeStatusJSON(w, eng)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		reg.Snapshot().WritePrometheus(w)
		s.MetricsSnapshot().WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	addDebugRoutes(mux, eng)
	return mux
}

// cmdVersion prints the module version and build metadata.
func cmdVersion(w io.Writer) error {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return fmt.Errorf("version: build info unavailable")
	}
	ver := bi.Main.Version
	if ver == "" || ver == "(devel)" {
		ver = "devel"
	}
	fmt.Fprintf(w, "svrsim %s (%s, %s)\n", ver, bi.Main.Path, bi.GoVersion)
	var rev, modified, when string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		case "vcs.time":
			when = s.Value
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		dirty := ""
		if modified == "true" {
			dirty = " (modified)"
		}
		fmt.Fprintf(w, "  commit %s%s %s\n", rev, dirty, when)
	}
	return nil
}
