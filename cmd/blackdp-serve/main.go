// Command blackdp-serve exposes the simulator as a long-running HTTP
// service: POST simulation or sweep jobs as JSON under /v1, watch
// per-replication progress stream back as NDJSON, and read aggregate
// service health from a Prometheus-style /v1/metrics endpoint. Identical
// configurations are answered from a canonical-fingerprint result cache.
//
//	blackdp-serve -addr :8080
//	curl -sN localhost:8080/v1/jobs -d '{"kind":"sweep","reps":20,"config":{"AttackerCluster":4}}'
//	curl -s  localhost:8080/v1/metrics
//
// With -api-key or -keys the server is multi-tenant: every job request
// must carry "Authorization: Bearer <key>", and each tenant gets its own
// token-bucket rate limit, bounded queue and fair share of the execution
// slots. Every job's stream can be re-tailed from any line offset via
// GET /v1/jobs/{id}/stream?offset=N; with -store DIR jobs are durable:
// their streams journal to disk, survive a kill -9 and resume on restart.
//
// On SIGTERM or SIGINT the server drains: new jobs are refused with 503
// while in-flight jobs run to completion (durable jobs checkpoint and
// resume on the next start), then the cache statistics are logged and the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"blackdp/internal/dist"
	"blackdp/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "blackdp-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		workers = flag.Int("workers", 0, "concurrent jobs (0 = default)")
		queue   = flag.Int("queue", 0, "queued jobs beyond the running set (0 = default, negative = none)")
		cache   = flag.Int("cache", 0, "result cache entries (0 = default)")
		pool    = flag.Int("sweep-workers", 0, "per-sweep replication pool size (0 = one per CPU)")
		maxReps = flag.Int("max-reps", 0, "largest accepted sweep (0 = default)")
		grace   = flag.Duration("grace", 30*time.Second, "drain deadline after SIGTERM")
		pprofOn = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (profiling only; do not enable on untrusted networks)")
		fleet   = flag.String("fleet", "", "comma-separated blackdp-worker base URLs; sweeps shard across them (empty = local execution)")
		chunk   = flag.Int("chunk-reps", 0, "replications per dispatched fleet chunk (0 = default)")
		store   = flag.String("store", "", "directory for the durable job store (empty = jobs are in-memory only)")
		keys    = flag.String("keys", "", "tenant keyfile: one name:key[:rate[:burst]] per line")
	)
	var tenants []serve.Tenant
	flag.Func("api-key", "tenant in name:key[:rate[:burst]] form (repeatable)", func(s string) error {
		t, err := serve.ParseTenant(s)
		if err != nil {
			return err
		}
		tenants = append(tenants, t)
		return nil
	})
	flag.Parse()

	if *keys != "" {
		fromFile, err := serve.LoadKeyfile(*keys)
		if err != nil {
			return err
		}
		tenants = append(tenants, fromFile...)
	}

	cfg := serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		SweepWorkers: *pool,
		MaxReps:      *maxReps,
		Tenants:      tenants,
	}
	if *store != "" {
		fs, err := serve.NewFileStore(*store)
		if err != nil {
			return err
		}
		cfg.Store = fs
		fmt.Printf("blackdp-serve store: durable jobs in %s\n", *store)
	}
	if len(tenants) > 0 {
		fmt.Printf("blackdp-serve tenants: %d API keys loaded\n", len(tenants))
	}
	if *fleet != "" {
		urls := strings.Split(*fleet, ",")
		coord := dist.New(dist.Config{Workers: urls, ChunkReps: *chunk})
		coord.Start()
		defer coord.Stop()
		cfg.Distributor = coord
		fmt.Printf("blackdp-serve fleet: %d workers configured\n", len(urls))
	}
	s, err := serve.New(cfg)
	if err != nil {
		return err
	}
	if *pprofOn {
		// Profiling rides on the service port so scripts/profile.sh can
		// capture CPU and heap profiles of a live sweep without a second
		// listener. The debug mux wraps the service mux rather than the
		// reverse, keeping /debug/pprof/ out of the job API's route space.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", s.Handler())
		s.SetHandler(mux)
	}
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// The resolved address line is the startup handshake: supervisors (and
	// the integration test) parse it to learn the ephemeral port.
	fmt.Printf("blackdp-serve listening on %s\n", l.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- s.Serve(l) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Println("blackdp-serve draining: refusing new jobs, finishing in-flight")

	drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	stats, err := s.Drain(drainCtx)
	fmt.Printf("blackdp-serve cache: %d hits, %d coalesced, %d misses, %d entries retained\n",
		stats.Hits, stats.Joins, stats.Misses, stats.Entries)
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if serr := <-errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	fmt.Println("blackdp-serve drained cleanly")
	return nil
}
