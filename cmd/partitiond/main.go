// Command partitiond serves the solver registry over HTTP/JSON with a
// fingerprint-keyed result cache, admission control, and Prometheus-style
// metrics. See the README "Serving" section for the API and an example
// session.
//
// Usage:
//
//	partitiond -addr :8080
//	partitiond -addr :8080 -max-concurrent 8 -queue 32 -cache-size 4096
//	partitiond -cache-size -1                 # disable the result cache
//	partitiond -log json                      # structured JSON logs
//	partitiond -debug-addr localhost:6060     # net/http/pprof on a side listener
//
// Endpoints:
//
//	POST /v1/solve    one solve: {"solver","k","graph",...}
//	POST /v1/batch    many solves, each item admitted like a /v1/solve
//	POST /v1/jobs     async solve job (202 + job ID); same bodies as /v1/solve
//	GET  /v1/jobs     retained jobs, newest first
//	GET  /v1/jobs/{id}         job status (+ result once succeeded)
//	GET  /v1/jobs/{id}/events  Server-Sent Events progress stream
//	DELETE /v1/jobs/{id}       cancel
//	GET  /v1/solvers  registry names, graph kinds and server limits
//	GET  /v1/cluster  cluster membership, forward and single-flight counters
//	GET  /v1/traces   flight-recorder trace index (filter by solver/outcome/duration)
//	GET  /v1/traces/{id}       one retained trace (+ ?format=chrome for chrome://tracing)
//	GET  /healthz     liveness (503 while draining)
//	GET  /metrics     Prometheus text format, one series per fact (solve
//	                  counts are partitiond_solve_duration_seconds_count,
//	                  cache lookups partitiond_cache_requests_total)
//
// Clustering: -peers lists every node (self included) and -self names this
// node's own address from that list. Each graph fingerprint hashes to one
// owning node; cache misses on non-owners forward the solve to the owner so
// the cluster behaves as one logical cache with cluster-wide solve
// deduplication. See the README "Clustering" section.
//
// Async jobs wait in a -job-queue-bounded priority queue for a solve slot no
// synchronous request is queued for; -max-concurrent bounds every solve.
//
// On SIGINT/SIGTERM the server drains: new requests and job submissions get
// 503, queued jobs turn terminal canceled, in-flight solves and running jobs
// get -drain to finish (then running jobs are force-canceled), and the
// process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/version"
)

func main() {
	if err := run(os.Args); err != nil {
		fmt.Fprintln(os.Stderr, "partitiond:", err)
		os.Exit(1)
	}
}

// run is the whole command; args[0] names the program in the usage text.
// A flag that does not parse exits 2 and -h exits 0, as with flag.Parse.
func run(args []string) error {
	fs := flag.NewFlagSet(args[0], flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	cacheSize := fs.Int("cache-size", 4096, "result cache capacity in entries (negative disables caching)")
	maxConcurrent := fs.Int("max-concurrent", 0, "max simultaneous solves (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "max requests waiting for a solve slot (0 = 4x max-concurrent); beyond it requests are shed with 429")
	queueTimeout := fs.Duration("queue-timeout", 2*time.Second, "max time a request may wait for a solve slot before a 503")
	timeout := fs.Duration("timeout", 10*time.Second, "default per-solve deadline")
	maxTimeout := fs.Duration("max-timeout", time.Minute, "cap on client-requested solve deadlines")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
	jobQueue := fs.Int("job-queue", 64, "max jobs waiting for a solve slot; beyond it submissions are shed with 429")
	jobRetention := fs.Duration("job-retention", 15*time.Minute, "how long finished jobs (and their results) stay fetchable")
	maxJobTimeout := fs.Duration("max-job-timeout", 15*time.Minute, "cap on a job's total lifetime (queue wait included); also the default when the submission names none")
	drain := fs.Duration("drain", 15*time.Second, "how long to wait for in-flight solves and running jobs on shutdown")
	peers := fs.String("peers", "", "comma-separated cluster peer addresses including this node (empty = standalone)")
	self := fs.String("self", "", "this node's own address within -peers (required with -peers)")
	healthInterval := fs.Duration("health-interval", 2*time.Second, "period of the cluster peer health sweep")
	healthTimeout := fs.Duration("health-timeout", time.Second, "deadline for one cluster peer health probe")
	traceSample := fs.Float64("trace-sample", 0.01, "flight recorder head-sampling rate in [0,1]: probability an ordinary solve's trace is retained (slow/errored/shed/forwarded traces are always kept)")
	traceStore := fs.Int("trace-store", 512, "max traces retained by the flight recorder (negative disables it and /v1/traces answers enabled:false)")
	slowTrace := fs.Duration("slow-trace", 500*time.Millisecond, "absolute duration beyond which any solve's trace is retained regardless of sampling")
	logFormat := fs.String("log", "text", "log format: text | json")
	debugAddr := fs.String("debug-addr", "", "listen address for net/http/pprof profiling endpoints (empty disables); keep it off public interfaces")
	showVersion := fs.Bool("version", false, "print version and exit")
	fs.Parse(args[1:])

	if *showVersion {
		fmt.Printf("partitiond %s %s\n", version.Version, version.GoVersion())
		return nil
	}

	// Fail fast on nonsense before binding the port.
	if *maxConcurrent < 0 {
		return fmt.Errorf("-max-concurrent must be non-negative (got %d)", *maxConcurrent)
	}
	if *queue < 0 {
		return fmt.Errorf("-queue must be non-negative (got %d)", *queue)
	}
	for _, d := range []struct {
		name string
		val  time.Duration
	}{
		{"-queue-timeout", *queueTimeout},
		{"-timeout", *timeout},
		{"-max-timeout", *maxTimeout},
		{"-retry-after", *retryAfter},
		{"-job-retention", *jobRetention},
		{"-max-job-timeout", *maxJobTimeout},
		{"-drain", *drain},
		{"-slow-trace", *slowTrace},
		{"-health-interval", *healthInterval},
		{"-health-timeout", *healthTimeout},
	} {
		if d.val <= 0 {
			return fmt.Errorf("%s must be positive (got %v)", d.name, d.val)
		}
	}
	if *maxTimeout < *timeout {
		return fmt.Errorf("-max-timeout (%v) must be at least -timeout (%v)", *maxTimeout, *timeout)
	}
	if *jobQueue <= 0 {
		return fmt.Errorf("-job-queue must be positive (got %d)", *jobQueue)
	}
	if !(*traceSample >= 0 && *traceSample <= 1) {
		return fmt.Errorf("-trace-sample must be in [0,1] (got %g)", *traceSample)
	}
	if *peers == "" && *self != "" {
		return errors.New("-self requires -peers")
	}
	if *peers != "" && *self == "" {
		return errors.New("-peers requires -self")
	}

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return fmt.Errorf("-log must be text or json (got %q)", *logFormat)
	}
	logger := slog.New(handler)

	cfg := server.Config{
		Addr:           *addr,
		CacheSize:      *cacheSize,
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *queue,
		QueueTimeout:   *queueTimeout,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		RetryAfter:     *retryAfter,
		JobQueue:       *jobQueue,
		JobRetention:   *jobRetention,
		MaxJobTimeout:  *maxJobTimeout,
		TraceSample:    *traceSample,
		TraceStore:     *traceStore,
		SlowTrace:      *slowTrace,
		Logger:         logger,
	}
	if *cacheSize == 0 {
		cfg.CacheSize = -1 // flag semantics: 0 entries means no cache
	}
	if *traceStore == 0 {
		cfg.TraceStore = -1 // flag semantics: 0 traces means no recorder
	}
	var clu *cluster.Cluster
	if *peers != "" {
		var err error
		clu, err = cluster.New(cluster.Config{
			Self:           *self,
			Peers:          strings.Split(*peers, ","),
			HealthInterval: *healthInterval,
			HealthTimeout:  *healthTimeout,
			Logger:         logger,
		})
		if err != nil {
			return err
		}
		cfg.Cluster = clu
		clu.Start()
		defer clu.Close()
	}
	srv := server.New(cfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The profiling listener is separate from the API listener so pprof is
	// never reachable through the public port. An explicit mux avoids the
	// DefaultServeMux registrations that net/http/pprof's import performs.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Addr: *debugAddr, Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		return err // listener failed before any signal
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	logger.Info("signal received, draining", "timeout", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if debugSrv != nil {
		debugSrv.Shutdown(drainCtx)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
