// Command treegiond is the treegion compilation service: an HTTP daemon
// that compiles textual-IR functions through the concurrent pipeline, a
// tiered content-addressed result cache (memory over an optional
// disk-backed artifact store), and an asynchronous job queue.
//
// Endpoints (API v1; any other path is a structured 404 not_found):
//
//	POST   /v1/compile    {"ir": "func f\nbb0:\n  ...", "region": "tree", ...}
//	                      → schedule metadata + timing JSON (see api.CompileBody)
//	POST   /v1/jobs       same body → 202 {"id": "j...", "state": "queued"};
//	                      429 queue_full when the bounded queue overflows
//	GET    /v1/jobs       list known jobs, newest first
//	GET    /v1/jobs/{id}  poll: queued/running/done/failed (+ result or error)
//	DELETE /v1/jobs/{id}  cancel a queued or running job
//	GET    /v1/metrics    cache/store/jobs/pipeline/HTTP counters plus
//	                      per-phase compile latency histograms, Prometheus text
//	GET    /v1/healthz    liveness probe
//
// Errors are structured: {"error": {"code": "...", "message": "..."}} with
// a machine-readable code (bad_json, unknown_field, bad_config, ...).
//
// Usage:
//
//	treegiond [-addr :8037] [-workers 0] [-cache-bytes 536870912]
//	          [-store-dir DIR] [-store-budget 4294967296]
//	          [-job-workers 2] [-job-queue 64] [-job-timeout 5m]
//	          [-debug-addr :8038]
//
// -store-dir enables the persistent artifact store: compile results
// survive restarts (warm starts skip the scheduler entirely) and the job
// journal lives there, so queued jobs are recovered after a crash.
// -debug-addr starts a second listener serving net/http/pprof under
// /debug/pprof/, kept off the service port so profiling is opt-in.
//
// On SIGINT/SIGTERM the daemon drains gracefully: listeners stop accepting
// work, in-flight requests and running jobs finish, still-queued jobs stay
// journaled for the next start, and the store is flushed.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	addr := flag.String("addr", ":8037", "listen address")
	workers := flag.Int("workers", 0, "pipeline workers per compile (0 = GOMAXPROCS)")
	cacheBytes := flag.Int64("cache-bytes", 512<<20, "in-memory result cache byte budget")
	storeDir := flag.String("store-dir", "", "persistent artifact store directory (empty = disabled)")
	storeBudget := flag.Int64("store-budget", 4<<30, "artifact store byte budget (GC evicts oldest entries beyond it)")
	jobWorkers := flag.Int("job-workers", 2, "async job queue workers")
	jobQueue := flag.Int("job-queue", 64, "async job queue capacity (submissions beyond it get 429)")
	jobTimeout := flag.Duration("job-timeout", 5*time.Minute, "per-job execution timeout (0 = none)")
	debugAddr := flag.String("debug-addr", "", "pprof listen address (empty = disabled)")
	flag.Parse()

	s, err := newServer(serverConfig{
		workers:     *workers,
		cacheBytes:  *cacheBytes,
		storeDir:    *storeDir,
		storeBudget: *storeBudget,
		jobWorkers:  *jobWorkers,
		jobQueue:    *jobQueue,
		jobTimeout:  *jobTimeout,
	})
	if err != nil {
		log.Fatalf("treegiond: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var dbg *http.Server
	if *debugAddr != "" {
		dbg = &http.Server{
			Addr:              *debugAddr,
			Handler:           debugRoutes(),
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			// pprof profile/trace streams run for their ?seconds= duration,
			// so the write timeout must exceed the common 30s default.
			WriteTimeout: 2 * time.Minute,
			IdleTimeout:  2 * time.Minute,
		}
		go func() {
			log.Printf("treegiond: pprof on %s/debug/pprof/", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("treegiond: pprof listener: %v", err)
			}
		}()
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           s.routes(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		// Synchronous compiles answer within the write window; long work
		// belongs on /v1/jobs, which replies immediately with a job ID.
		WriteTimeout: 2 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}
	go func() {
		log.Printf("treegiond: listening on %s (workers=%d, cache budget=%d bytes, store=%q)",
			*addr, *workers, *cacheBytes, *storeDir)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("treegiond: listener: %v", err)
			stop()
		}
	}()

	<-ctx.Done()
	log.Printf("treegiond: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("treegiond: http shutdown: %v", err)
	}
	if dbg != nil {
		if err := dbg.Shutdown(shutdownCtx); err != nil {
			log.Printf("treegiond: pprof shutdown: %v", err)
		}
	}
	if err := s.shutdown(shutdownCtx); err != nil {
		log.Printf("treegiond: drain: %v", err)
	}
	log.Printf("treegiond: bye")
}
