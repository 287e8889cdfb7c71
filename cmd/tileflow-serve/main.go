// Command tileflow-serve runs the TileFlow evaluation service: an HTTP/JSON
// API over the tree-based analysis and the 3D design-space mapper, with a
// bounded worker pool and a canonical-key memoization cache so identical
// design points are analyzed once no matter how many clients ask.
//
// Endpoints:
//
//	POST   /v1/evaluate        evaluate one design point
//	POST   /v1/evaluate/batch  evaluate many design points concurrently
//	POST   /v1/search          run the GA+MCTS mapper over the 3D space
//	POST   /v1/jobs/search     submit the same search as an async job
//	GET    /v1/jobs            list jobs
//	GET    /v1/jobs/{id}       job status, progress, and result
//	GET    /v1/jobs/{id}/events  SSE progress stream
//	DELETE /v1/jobs/{id}       cancel a job
//	GET    /healthz            liveness and basic stats
//	GET    /metrics            Prometheus text metrics
//
// With -data-dir, jobs survive restarts: SIGTERM checkpoints running
// searches and re-queues them, and the next start resumes them from the
// checkpoint with an identical trajectory.
//
// Example:
//
//	tileflow-serve -addr :8080 -data-dir /var/lib/tileflow
//	curl -s localhost:8080/v1/jobs/search -d '{"arch":"edge","workload":"attention:Bert-S"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	cacheEntries := flag.Int("cache", 8192, "memoization cache capacity (entries)")
	workers := flag.Int("workers", 0, "max concurrent evaluations (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request deadline")
	maxBatch := flag.Int("max-batch", 256, "max design points per batch request")
	dataDir := flag.String("data-dir", "", "directory for the durable job store (empty = in-memory jobs)")
	jobWorkers := flag.Int("job-workers", 0, "concurrent async search jobs (0 = GOMAXPROCS, -1 = none: coordinator-only)")
	coordinator := flag.String("coordinator", "", "coordinator base URL; set to run as a fleet worker (e.g. http://host:8080)")
	fleetListen := flag.String("fleet-listen", "", "dedicated listen address for the fleet peer protocol (empty = serve it on -addr)")
	node := flag.String("node", "", "fleet node name for lease ownership and metrics (default hostname-pid)")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "lease TTL granted to fleet workers when coordinating")
	jobRetention := flag.Duration("job-retention", 0, "evict finished jobs older than this horizon (0 = keep forever)")
	tenantMaxRunning := flag.Int("tenant-max-running", 0, "max concurrently running jobs per tenant, local + fleet (0 = unlimited)")
	tenantMaxActive := flag.Int("tenant-max-active", 0, "max active (queued+running) jobs per tenant at admission (0 = unlimited)")
	schedSeed := flag.Int64("sched-seed", 0, "seed for the scheduler's deterministic tie-breaker")
	maxAttempts := flag.Int("max-attempts", 0, "default failovers before a job is quarantined as poisoned (0 = retry forever)")
	flag.Parse()

	srv, err := serve.Open(serve.Config{
		CacheEntries:       *cacheEntries,
		Workers:            *workers,
		Timeout:            *timeout,
		MaxBatch:           *maxBatch,
		DataDir:            *dataDir,
		JobWorkers:         *jobWorkers,
		Coordinator:        *coordinator,
		FleetNode:          *node,
		LeaseTTL:           *leaseTTL,
		JobRetention:       *jobRetention,
		TenantMaxRunning:   *tenantMaxRunning,
		TenantMaxActive:    *tenantMaxActive,
		SchedSeed:          *schedSeed,
		DefaultMaxAttempts: *maxAttempts,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tileflow-serve:", err)
		os.Exit(1)
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Shutdown waits for active requests; answering parked fleet claims
	// at once keeps it from waiting out a worker's claim park.
	hs.RegisterOnShutdown(srv.StopParking)

	var fs *http.Server
	if *fleetListen != "" {
		// A dedicated peer listener keeps claim/renew/checkpoint traffic
		// off the public port; the protocol still answers on -addr too.
		fs = &http.Server{
			Addr:              *fleetListen,
			Handler:           srv.FleetHandler(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		fs.RegisterOnShutdown(srv.StopParking)
		go func() {
			log.Printf("tileflow-serve fleet protocol on %s", *fleetListen)
			if err := fs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("tileflow-serve: fleet listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if fs != nil {
			fs.Shutdown(shutdownCtx)
		}
		hs.Shutdown(shutdownCtx)
	}()

	log.Printf("tileflow-serve listening on %s (workers=%d cache=%d timeout=%s data-dir=%q)",
		*addr, effectiveWorkers(*workers), *cacheEntries, *timeout, *dataDir)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "tileflow-serve:", err)
		os.Exit(1)
	}
	// HTTP is down; drain the job workers so running searches checkpoint
	// and re-queue before the process exits.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Close(drainCtx); err != nil {
		log.Printf("tileflow-serve: drain: %v", err)
	}
	log.Printf("tileflow-serve: shut down")
}

func effectiveWorkers(n int) int {
	if n > 0 {
		return n
	}
	return serve.NewPool(0).Workers()
}
