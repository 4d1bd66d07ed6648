// Command vosd is the characterization-sweep daemon: it wraps the
// internal/engine subsystem in an HTTP API so many clients can share one
// worker pool and one content-addressed result cache. The handlers live
// in internal/engine/httpapi; the vos SDK's Remote client is the
// intended consumer, but the API is plain JSON over HTTP (see API.md).
//
// Usage:
//
//	vosd [-addr :8420] [-workers N] [-cache-dir DIR] [-journal-dir DIR]
//	     [-models DIR] [-peers URL,URL,...] [-advertise URL]
//	     [-tenant-quota N] [-log-json]
//
// With -peers, vosd joins a cluster (internal/cluster): declarative
// sweeps are sharded across the members on a consistent-hash ring, and
// cache misses are filled from peer nodes before simulating. Every
// member runs with the same flags, listing the others in -peers and
// itself in -advertise; see README.md for a walkthrough.
//
// With -journal-dir, the job registries are durable: every sweep and
// Monte Carlo job's lifecycle goes through a write-ahead journal in
// DIR, and a restarted daemon replays it before serving — finished
// jobs stay queryable, unfinished ones are re-adopted under their
// original IDs and resumed (completed points re-served from the cache,
// only the remainder re-executed). During replay the daemon answers
// /readyz and job submissions with 503 + Retry-After. See README.md
// "Durability & recovery".
//
// API:
//
//	POST   /v1/sweeps              submit a sweep (engine.Request JSON) → 202 {"id": ...}
//	GET    /v1/sweeps              list all sweeps (status + progress, no results)
//	GET    /v1/sweeps/{id}         one sweep's status and progress
//	GET    /v1/sweeps/{id}/results full results once done (409 while running)
//	GET    /v1/sweeps/{id}/events  NDJSON stream of per-point progress events
//	DELETE /v1/sweeps/{id}         cancel a pending/running sweep
//	GET    /v1/jobs                both registries' jobs (sweeps + mc), recovery provenance included
//	POST   /v1/mc                  submit a Monte Carlo job (engine.MCRequest JSON) → 202 {"id": ...}
//	GET    /v1/mc/{id}             one job's status and progress
//	GET    /v1/mc/{id}/results     full per-point results once done (409 while running)
//	GET    /v1/mc/{id}/events      NDJSON stream of per-point progress events
//	DELETE /v1/mc/{id}             cancel a pending/running job
//	GET    /v1/cache/stats         result-cache and execution counters
//	GET    /v1/cache/entries/{key} raw cache entry (peer cache tier)
//	PUT    /v1/cache/entries/{key} store a cache entry (peer cache tier)
//	GET    /v1/cluster/status      membership and peer health (clustered only)
//	GET    /healthz                liveness probe
//	GET    /readyz                 readiness probe (503 while replaying or draining)
//
// Every non-2xx response carries the structured error envelope
// {"error":{"code":"...","message":"..."}}.
//
// vosd shuts down gracefully on SIGINT/SIGTERM: the engine stops
// accepting new jobs (503 draining), the listener stops accepting,
// in-flight responses get a drain window, and the engine is closed so
// no sweep dies mid-write. With a journal, interrupted jobs are not
// lost — the next start resumes them exactly as it would after a
// crash.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vosd: ")
	var (
		addr        = flag.String("addr", ":8420", "listen address")
		workers     = flag.Int("workers", 0, "worker-pool size (0 = NumCPU)")
		cacheDir    = flag.String("cache-dir", "", "on-disk result cache root (empty = memory only)")
		journalDir  = flag.String("journal-dir", "", "write-ahead journal root for durable job registries (empty = jobs die with the process)")
		modelDir    = flag.String("models", "", "export trained error models as JSON into DIR (vosmodel store format)")
		peers       = flag.String("peers", "", "comma-separated peer vosd URLs (joins a cluster)")
		advertise   = flag.String("advertise", "", "this node's URL as peers reach it (required with -peers)")
		tenantQuota = flag.Int("tenant-quota", 0, "max in-flight jobs (sweeps + mc) per tenant (0 = unlimited)")
		logJSON     = flag.Bool("log-json", false, "write one JSON request-log line per request to stderr")
	)
	flag.Parse()

	opts := cluster.NodeOptions{
		Advertise:   *advertise,
		Workers:     *workers,
		CacheDir:    *cacheDir,
		JournalDir:  *journalDir,
		ModelDir:    *modelDir,
		TenantQuota: *tenantQuota,
	}
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			opts.Peers = append(opts.Peers, p)
		}
	}
	if *logJSON {
		opts.AccessLog = os.Stderr
	}
	node, err := cluster.NewNode(opts)
	if err != nil {
		log.Fatal(err)
	}
	eng := node.Engine()

	srv := &http.Server{
		Addr:        *addr,
		Handler:     newMux(node.Handler()),
		ReadTimeout: 30 * time.Second,
		// No WriteTimeout: the events endpoint streams for a sweep's
		// whole lifetime. Non-streaming handlers respond in milliseconds.
	}

	// Graceful shutdown: first signal starts draining, a second one
	// falls through to the default handler (immediate exit).
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("listening on %s (%d workers, cache %s%s%s)",
		*addr, eng.Workers(), cacheDesc(*cacheDir), journalDesc(*journalDir), clusterDesc(opts.Peers))

	select {
	case err := <-errc:
		node.Close()
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal behavior: a second ^C kills immediately
		log.Print("shutting down (signal); interrupt again to force")
	}

	// Refuse new jobs for the remainder of the drain: submissions get
	// the 503 draining envelope, and the engine skips terminal journal
	// records for jobs it cancels on the way down — so a journaled
	// daemon resumes them on the next start instead of replaying them
	// as canceled.
	eng.StartDrain()

	// Close the node first: the engine cancels still-running sweeps (they
	// finish as canceled, publishing their terminal events, which ends
	// any open /events streams) and waits for the worker pool to
	// quiesce, so nothing dies mid-write. Doing this before the HTTP
	// drain matters — an events stream only closes on its sweep's
	// terminal event, so the reverse order would pin Shutdown against
	// its whole deadline whenever a subscriber is connected. Requests
	// arriving in between see the engine_closed error envelope.
	node.Close()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
	log.Print("bye")
}

// newMux combines the node's API surface with the daemon's own
// profiling routes.
func newMux(api http.Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/", api)
	// In-situ profiling of a live daemon (the sweep engine is the hot
	// path): `go tool pprof http://host:8420/debug/pprof/profile`.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func cacheDesc(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return "in-memory + " + dir
}

func journalDesc(dir string) string {
	if dir == "" {
		return ""
	}
	return ", journal " + dir
}

func clusterDesc(peers []string) string {
	if len(peers) == 0 {
		return ""
	}
	return ", cluster of " + strings.Join(peers, " ")
}
