package server

import (
	"bytes"
	"context"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// Config sizes the serving layer. The zero value is usable: every field has
// a production-lean default applied by New.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8080").
	Addr string
	// CacheSize is the result cache capacity in entries; 0 picks the
	// default (4096) and a negative value disables caching entirely.
	CacheSize int
	// MaxConcurrent bounds simultaneously running solves (default
	// GOMAXPROCS).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a solve slot; beyond it
	// requests are shed with 429 (default 4 × MaxConcurrent).
	MaxQueue int
	// QueueTimeout bounds how long an admitted request may wait in the
	// queue before it is shed with 503 (default 2s).
	QueueTimeout time.Duration
	// DefaultTimeout is the per-solve deadline applied when a request
	// does not carry its own (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout caps any client-requested deadline (default 60s).
	MaxTimeout time.Duration
	// RetryAfter is the hint attached to 429/503 responses (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds request bodies (default 32 MiB).
	MaxBodyBytes int64
	// MaxNodes bounds the node count of any graph in a request (default
	// 4Mi). Binary requests declare their counts up front, so oversized
	// graphs are rejected before any array is allocated; JSON graphs are
	// checked right after decode. Negative disables the limit.
	MaxNodes int
	// JobQueue bounds async jobs waiting for a solve slot; beyond it
	// submissions are shed with 429 (default 64). Jobs take slots from the
	// same admission limiter as the synchronous routes, only when no
	// synchronous request is queued for one, so MaxConcurrent bounds every
	// solve.
	JobQueue int
	// JobRetention is how long finished jobs stay fetchable before the
	// janitor reclaims them (default 15m).
	JobRetention time.Duration
	// MaxJobTimeout caps (and defaults) an async job's total lifetime,
	// queue wait included (default 15m). This is the deadline that lets
	// jobs run solves far past MaxTimeout, the synchronous cap.
	MaxJobTimeout time.Duration
	// Logger receives structured request and lifecycle logs; nil means
	// slog.Default().
	Logger *slog.Logger
	// Cluster, when non-nil, federates this node with its peers: /v1/solve
	// cache misses on graphs another node owns are forwarded there, and
	// forwarded requests from peers are answered from this node's shard.
	// The caller owns the cluster's lifecycle (Start/Close); the server
	// only routes through it. See internal/cluster.
	Cluster *cluster.Cluster
	// TraceSample is the flight recorder's head-sampling rate in [0,1]:
	// the probability an ordinary successful solve is retained beyond the
	// tail-sampling rules (slow, errored, shed, and cluster-forwarded
	// traces are always kept). 0 keeps tail-sampling only; the partitiond
	// binary defaults its -trace-sample flag to 0.01.
	TraceSample float64
	// TraceStore caps retained traces by count; 0 picks the default (512)
	// and a negative value disables the flight recorder entirely —
	// /v1/traces then answers enabled:false. The store is also capped at
	// 8 MiB of serialized traces; oldest traces are evicted first on either
	// cap.
	TraceStore int
	// SlowTrace is the absolute duration floor beyond which any solve is
	// retained regardless of sampling (default 500ms). The recorder also
	// keeps solves beyond the per-solver adaptive p99 threshold.
	SlowTrace time.Duration
}

// withDefaults returns cfg with unset fields filled in.
func (cfg Config) withDefaults() Config {
	if cfg.Addr == "" {
		cfg.Addr = ":8080"
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 4096
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 4 * cfg.MaxConcurrent
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 2 * time.Second
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 60 * time.Second
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.MaxNodes == 0 {
		cfg.MaxNodes = 4 << 20
	}
	if cfg.MaxNodes < 0 {
		cfg.MaxNodes = 0 // 0 = unlimited downstream
	}
	if cfg.MaxJobTimeout <= 0 {
		cfg.MaxJobTimeout = 15 * time.Minute
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return cfg
}

// Server is the partitiond serving layer: HTTP handlers over the engine
// registry with caching, admission control, and metrics. Construct with New;
// drive with ListenAndServe/Serve; stop with Shutdown, which drains
// in-flight solves.
type Server struct {
	cfg      Config
	cache    *Cache
	graphs   *graphStore // the decoded graphs the cache's keys name; nil with the cache off
	limiter  *Limiter
	solvem   *solveMetrics    // the engine observer of every solve: all solver metrics
	jobs     *jobs.Manager    // async job queue and its dispatcher
	recorder *flight.Recorder // always-on trace store; nil when disabled
	handler  http.Handler
	hs       *http.Server
	draining atomic.Bool
	started  time.Time

	// cluster is the optional multi-node view (nil = single node); flight
	// dedups concurrent identical cache misses into one solve, locally and
	// — because forwarded peer requests share the owner's keys — across the
	// whole cluster; clusterm attributes cache lookups to requester tiers.
	cluster  *cluster.Cluster
	flight   cluster.Group[cacheKey, resolved]
	clusterm clusterMetrics

	// bufPool recycles request-body read buffers.
	bufPool sync.Pool
	// solverNames snapshots the registry at construction so binary request
	// parsing can intern solver names without re-sorting the registry.
	solverNames []string

	// httpm holds each route label's HTTP series; routes() fills it and it
	// is read-only afterwards. httpInFlight counts requests being served.
	httpm        map[string]*routeMetrics
	httpInFlight atomic.Int64

	// Outcomes of requested certificates, for /metrics.
	verifyCertified   atomic.Uint64
	verifyUncertified atomic.Uint64
}

// maxBatchRequests bounds the request count of one batch call.
const maxBatchRequests = 1024

// New builds a Server from cfg (zero-value fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		limiter:     NewLimiter(cfg.MaxConcurrent, cfg.MaxQueue),
		solvem:      newSolveMetrics(),
		started:     time.Now(),
		bufPool:     sync.Pool{New: func() any { return new(bytes.Buffer) }},
		solverNames: engine.Names(),
		cluster:     cfg.Cluster,
	}
	if cfg.CacheSize > 0 {
		s.cache = NewCache(cfg.CacheSize, 16)
		s.graphs = newGraphStore()
	}
	if cfg.TraceStore >= 0 {
		s.recorder = flight.New(flight.Config{
			SampleRate:    cfg.TraceSample,
			MaxTraces:     cfg.TraceStore,
			SlowFloor:     cfg.SlowTrace,
			SlowThreshold: s.solvem.slowFor,
		})
	}
	s.jobs = jobs.New(jobs.Config{
		QueueCap:  cfg.JobQueue,
		Retention: cfg.JobRetention,
		Acquire:   s.limiter.AcquireIdle,
		Logger:    cfg.Logger,
	})
	s.handler = s.routes()
	s.hs = &http.Server{
		Addr:              cfg.Addr,
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler returns the fully middleware-wrapped HTTP handler, for embedding
// the API under another mux or driving it in tests without a listener.
func (s *Server) Handler() http.Handler { return s.handler }

// routes builds the mux. Method-qualified patterns give 405s for free. A
// pattern's route label is its path, so patterns that differ only in method
// share one label and one routeMetrics.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	s.httpm = make(map[string]*routeMetrics)
	handle := func(pattern string, h http.HandlerFunc) {
		_, route, _ := strings.Cut(pattern, " ")
		rm := s.httpm[route]
		if rm == nil {
			rm = &routeMetrics{hist: obs.NewHistogram(obs.LatencyBuckets())}
			s.httpm[route] = rm
		}
		mux.Handle(pattern, s.instrument(route, rm, h))
	}
	handle("POST /v1/solve", s.handleSolve)
	handle("POST /v1/batch", s.handleBatch)
	handle("GET /v1/solvers", s.handleSolvers)
	handle("POST /v1/jobs", s.handleJobSubmit)
	handle("GET /v1/jobs", s.handleJobList)
	handle("GET /v1/jobs/{id}", s.handleJobGet)
	handle("DELETE /v1/jobs/{id}", s.handleJobCancel)
	handle("GET /v1/jobs/{id}/events", s.handleJobEvents)
	handle("GET /v1/cluster", s.handleCluster)
	handle("GET /v1/traces", s.handleTraceList)
	handle("GET /v1/traces/{id}", s.handleTraceGet)
	handle("GET /healthz", s.handleHealthz)
	handle("GET /metrics", s.handleMetrics)
	return mux
}

// statusWriter captures the response code and size for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// Unwrap exposes the underlying writer to http.ResponseController, so the
// SSE handler can flush through the instrumentation wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// sanitizeRequestID keeps a client-supplied request ID only when it is
// printable ASCII of reasonable length, so IDs are safe to echo in headers
// and log lines. Anything else is discarded and a fresh ID generated.
func sanitizeRequestID(id string) string {
	if len(id) == 0 || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		if id[i] < 0x21 || id[i] > 0x7e {
			return ""
		}
	}
	return id
}

// instrument wraps a handler with request-ID propagation, request logging,
// the per-route counters and latency histogram, and the body-size cap. The
// request ID comes from the client's X-Request-ID header when valid, is
// generated otherwise, and is echoed back on the response; downstream it
// rides the context into slog lines, engine events, and trace roots.
func (s *Server) instrument(route string, rm *routeMetrics, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := sanitizeRequestID(r.Header.Get("X-Request-Id"))
		if rid == "" {
			rid = obs.NewRequestID()
		}
		r = r.WithContext(obs.WithRequestID(r.Context(), rid))
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set("X-Request-Id", rid)
		r.Body = http.MaxBytesReader(sw, r.Body, s.cfg.MaxBodyBytes)
		s.httpInFlight.Add(1)
		h(sw, r)
		s.httpInFlight.Add(-1)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		elapsed := time.Since(start)
		rm.observe(sw.code, elapsed)
		// LogAttrs with typed attrs: slog.Value keeps ints and durations
		// inline, so the log line costs no boxing allocations per request.
		// Exactly five attrs — slog.Record holds that many without growing.
		// The method is implied by the route (every pattern in routes() is
		// method-qualified), and the response size rides the metrics instead.
		s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("route", route),
			slog.Int("status", sw.code),
			slog.Duration("duration", elapsed),
			slog.String("remote", r.RemoteAddr),
			slog.String("requestID", rid),
		)
	})
}

// ListenAndServe serves on cfg.Addr until Shutdown or a listener error.
func (s *Server) ListenAndServe() error {
	l, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve serves on l until Shutdown or a listener error. Like
// http.Server.Serve it returns http.ErrServerClosed after a clean Shutdown.
func (s *Server) Serve(l net.Listener) error {
	attrs := []any{"addr", l.Addr().String(),
		"solvers", len(engine.Names()),
		"maxConcurrent", s.cfg.MaxConcurrent, "maxQueue", s.cfg.MaxQueue,
		"cacheSize", s.cfg.CacheSize}
	if s.cluster != nil {
		attrs = append(attrs, "clusterSelf", s.cluster.Self(), "clusterPeers", s.cluster.Size())
	}
	s.cfg.Logger.Info("serving", attrs...)
	return s.hs.Serve(l)
}

// Shutdown drains the server: new work — requests and job submissions — is
// refused with 503, queued jobs become terminal canceled, and running jobs
// get until ctx's deadline to finish before their solve contexts are
// force-canceled with a terminal "canceled" state. Requests already admitted
// run to completion, then the listener closes. The jobs drain runs first on
// purpose: a job's terminal event ends its open SSE streams, which is what
// lets the HTTP drain close those connections. The context bounds the whole
// drain; when it expires, remaining connections are abandoned and its error
// returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.cfg.Logger.Info("draining", "inFlight", s.limiter.Stats().InFlight, "jobs", s.jobs.Stats().Running)
	jerr := s.jobs.Shutdown(ctx)
	err := s.hs.Shutdown(ctx)
	if err == nil {
		err = jerr
	}
	s.cfg.Logger.Info("drained", "err", err)
	return err
}
