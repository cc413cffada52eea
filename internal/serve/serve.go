// Package serve is the clustering-as-a-service daemon behind cmd/ucpcd: an
// HTTP/JSON server exposing the full lifecycle of the public ucpc API over
// a multi-tenant model registry.
//
// Each tenant is one isolated clustering session — an algorithm from the
// shared registry, a per-tenant Config/StreamConfig, a streaming ingestion
// engine (StreamClusterer, or ShardedClusterer for tenants that merge
// remote UCWS statistics), and a frozen serving model behind an atomic
// pointer. The serving path (POST …/assign) reads that pointer and scores
// objects through the concurrency-safe Model.Assign; model installs
// (snapshot, batch fit, background FitFrom refresh, UCPM upload) are one
// atomic pointer store, so readers never block and never see a torn model —
// the fit-once/assign-many split of the paper's Theorem 1, deployed as the
// serve-while-refitting shape the ROADMAP's "millions of users" north star
// asks for.
//
// Production plumbing, end to end: per-request timeouts via context
// propagation into every library call, bounded per-tenant ingestion queues
// with explicit 429 backpressure, graceful shutdown that drains in-flight
// requests and queued ingestion, structured request logging (log/slog),
// and a Prometheus-text /metrics endpoint exporting request/response
// conservation counters, serving histograms (assign latency, batch sizes),
// swap counts, queue depths, and each tenant's model counters
// (iterations, objective, pruning) read live at scrape time.
//
//	POST   /v1/tenants              create a tenant (TenantSpec)
//	GET    /v1/tenants              list tenants
//	GET    /v1/tenants/{id}         tenant info
//	DELETE /v1/tenants/{id}         delete (ingester drains in background)
//	POST   /v1/tenants/{id}/observe enqueue objects for streaming ingestion (202; 429 = queue full)
//	POST   /v1/tenants/{id}/fit     synchronous batch fit + hot swap
//	POST   /v1/tenants/{id}/snapshot freeze stream centroids + hot swap
//	POST   /v1/tenants/{id}/refresh  background FitFrom refit (202) or stream re-begin (mode=stream)
//	POST   /v1/tenants/{id}/assign  serve objects against the frozen model
//	GET    /v1/tenants/{id}/model   download the UCPM model payload
//	PUT    /v1/tenants/{id}/model   upload a UCPM payload + hot swap
//	GET    /v1/tenants/{id}/stats   export UCWS statistics (stream tenants)
//	POST   /v1/tenants/{id}/stats   import remote UCWS statistics (sharded tenants)
//	GET    /v1/tenants/{id}/limits  admission state: mode, buckets, cost estimates
//	PUT    /v1/tenants/{id}/limits  switch admission mode / set manual rate+burst
//	GET    /metrics                 Prometheus text exposition
//	GET    /healthz                 liveness
//
// Admission control (admission.go) sits in front of the assign and observe
// handlers: per-tenant token buckets sized from a measured-cost EWMA against
// the daemon's latency budget shed excess load as 429/413 — never 5xx —
// with Retry-After derived from the bucket refill deficit and queue depth.
package serve

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"ucpc/internal/persist"
)

// Config is the daemon configuration; the zero value is production-safe
// defaults throughout.
type Config struct {
	// RequestTimeout bounds each request's context (0 = 30s). Long batch
	// fits that exceed it fail with 503 rather than holding a connection.
	RequestTimeout time.Duration
	// FitTimeout bounds background FitFrom refreshes (0 = 5m).
	FitTimeout time.Duration
	// QueueChunks is the default per-tenant ingestion-queue capacity,
	// counted in observe payloads (0 = 64). A full queue answers 429.
	QueueChunks int
	// MaxBodyBytes caps request bodies (0 = 32 MiB).
	MaxBodyBytes int64
	// Logger receives structured request and lifecycle logs (nil = text
	// logs to io.Discard; cmd/ucpcd wires a JSON handler on stderr).
	Logger *slog.Logger

	// StateDir enables crash-safe tenant persistence: every tenant's spec,
	// serving model (UCPM), engine checkpoint, and exported statistics
	// (UCWS) are written atomically under this directory (internal/persist)
	// on a timer, on every hot swap, and on graceful shutdown, and replayed
	// on boot — corrupt or torn snapshots are quarantined, never fatal.
	// Empty disables persistence.
	StateDir string
	// SnapshotInterval is the persistence timer period (0 = 30s). Only
	// meaningful with StateDir.
	SnapshotInterval time.Duration
	// PushTo enables the federation push loop: the base URL of a
	// coordinator daemon (e.g. "http://coordinator:8080"); every stream
	// tenant's UCWS statistics are pushed to the coordinator's matching
	// tenant id under the PushSource key. Empty disables pushing.
	PushTo string
	// PushInterval is the steady-state push period (0 = 5s). On failure
	// the loop backs off exponentially with full jitter, capped at 16×
	// this interval.
	PushInterval time.Duration
	// PushTimeout bounds each push request's context (0 = 5s).
	PushTimeout time.Duration
	// PushSource is the stable source key pushes are filed under on the
	// coordinator — each push *replaces* the previous one from the same
	// source, so cumulative statistics are never double-counted (0 = the
	// host name, or "edge" if that fails).
	PushSource string

	// Admission starts every tenant in auto admission mode (cost-model
	// sized token buckets on assign and observe) unless its spec says
	// otherwise. False leaves admission off by default; individual tenants
	// can still opt in with "admission": "on" or a limits PUT.
	Admission bool
	// P99Budget is the per-request latency budget admission defends
	// (0 = 250ms): auto mode sizes each bucket so an admitted batch can
	// finish within it at the measured per-object cost.
	P99Budget time.Duration

	// clock overrides time.Now for deterministic admission tests.
	clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.FitTimeout == 0 {
		c.FitTimeout = 5 * time.Minute
	}
	if c.QueueChunks == 0 {
		c.QueueChunks = 64
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.SnapshotInterval == 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	if c.PushInterval == 0 {
		c.PushInterval = 5 * time.Second
	}
	if c.PushTimeout == 0 {
		c.PushTimeout = 5 * time.Second
	}
	if c.PushSource == "" {
		if host, err := os.Hostname(); err == nil && host != "" {
			c.PushSource = host
		} else {
			c.PushSource = "edge"
		}
	}
	if c.P99Budget == 0 {
		c.P99Budget = 250 * time.Millisecond
	}
	if c.clock == nil {
		c.clock = time.Now
	}
	return c
}

// admissionDefaults resolves the server-level admission configuration
// handed to every newTenant call.
func (s *Server) admissionDefaults() admissionDefaults {
	return admissionDefaults{enabled: s.cfg.Admission, budget: s.cfg.P99Budget, now: s.cfg.clock}
}

// Server is the daemon: registry + handlers + metrics behind one
// http.Handler, plus lifecycle management (Serve, Shutdown) and, when
// configured, the durability layer (snapshot loop over a persist.Store)
// and the federation push loops.
type Server struct {
	cfg     Config
	logger  *slog.Logger
	reg     *registry
	metrics *metrics
	handler http.Handler
	http    *http.Server

	// store is the crash-safe snapshot store (nil when StateDir is empty).
	store *persist.Store
	// pushClient runs the federation pushes (per-request contexts carry
	// the timeout).
	pushClient *http.Client

	// Background-loop lifecycle: the snapshot loop and every push loop
	// select on stopLoops and register on loopWG, so Shutdown (and the
	// crash-simulation Abort) can stop them and wait for in-flight work.
	stopLoops chan struct{}
	stopOnce  sync.Once
	loopWG    sync.WaitGroup
	// kick wakes the snapshot loop early after a hot swap (capacity 1; a
	// pending kick coalesces installs).
	kick chan struct{}

	// degraded holds the healthz degraded-state reasons: quarantines from
	// boot-time restore (permanent until restart) and the most recent
	// persist failure (cleared by the next clean snapshot pass).
	degradedMu     sync.Mutex
	bootDegraded   []string
	persistFailure string
}

// New builds a Server from cfg. With a StateDir it opens the snapshot
// store, replays every recoverable tenant (quarantining corrupt snapshots
// and recording them in the healthz degraded state instead of failing
// boot), and starts the snapshot timer; an unusable state directory is the
// only fatal condition.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:        cfg,
		logger:     cfg.Logger,
		reg:        newRegistry(),
		metrics:    newMetrics(),
		pushClient: &http.Client{},
		stopLoops:  make(chan struct{}),
		kick:       make(chan struct{}, 1),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/tenants", s.handleCreateTenant)
	mux.HandleFunc("GET /v1/tenants", s.handleListTenants)
	mux.HandleFunc("GET /v1/tenants/{id}", s.handleGetTenant)
	mux.HandleFunc("DELETE /v1/tenants/{id}", s.handleDeleteTenant)
	mux.HandleFunc("POST /v1/tenants/{id}/observe", s.handleObserve)
	mux.HandleFunc("POST /v1/tenants/{id}/fit", s.handleFit)
	mux.HandleFunc("POST /v1/tenants/{id}/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /v1/tenants/{id}/refresh", s.handleRefresh)
	mux.HandleFunc("POST /v1/tenants/{id}/assign", s.handleAssign)
	mux.HandleFunc("GET /v1/tenants/{id}/model", s.handleGetModel)
	mux.HandleFunc("PUT /v1/tenants/{id}/model", s.handlePutModel)
	mux.HandleFunc("GET /v1/tenants/{id}/stats", s.handleGetStats)
	mux.HandleFunc("POST /v1/tenants/{id}/stats", s.handlePostStats)
	mux.HandleFunc("GET /v1/tenants/{id}/limits", s.handleGetLimits)
	mux.HandleFunc("PUT /v1/tenants/{id}/limits", s.handlePutLimits)
	s.handler = s.instrument(mux)
	s.http = &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	if cfg.StateDir != "" {
		store, err := persist.Open(cfg.StateDir)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.store = store
		s.restore()
		s.loopWG.Add(1)
		go s.snapshotLoop()
	}
	return s, nil
}

// handleHealthz: GET /healthz — 200 "ok" when fully healthy, 503
// "degraded: …" when boot-time restore quarantined snapshots or the latest
// persistence pass failed (serving itself keeps running either way).
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	s.degradedMu.Lock()
	reasons := append([]string(nil), s.bootDegraded...)
	if s.persistFailure != "" {
		reasons = append(reasons, s.persistFailure)
	}
	s.degradedMu.Unlock()
	if len(reasons) > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "degraded: %s\n", strings.Join(reasons, "; "))
		return
	}
	fmt.Fprintln(w, "ok")
}

// addBootDegraded records a permanent (until restart) degraded reason.
func (s *Server) addBootDegraded(reason string) {
	s.degradedMu.Lock()
	s.bootDegraded = append(s.bootDegraded, reason)
	s.degradedMu.Unlock()
}

// setPersistFailure records (or, with "", clears) the transient persist
// degraded reason.
func (s *Server) setPersistFailure(reason string) {
	s.degradedMu.Lock()
	s.persistFailure = reason
	s.degradedMu.Unlock()
}

// pokeSnapshot wakes the snapshot loop (non-blocking; a pending wake-up
// coalesces). Called after every model install so hot swaps hit disk
// promptly instead of waiting out the timer.
func (s *Server) pokeSnapshot() {
	if s.store == nil {
		return
	}
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// snapshotLoop persists dirty tenants every SnapshotInterval, and early
// whenever pokeSnapshot signals a hot swap.
func (s *Server) snapshotLoop() {
	defer s.loopWG.Done()
	ticker := time.NewTicker(s.cfg.SnapshotInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stopLoops:
			return
		case <-ticker.C:
		case <-s.kick:
		}
		s.persistAll()
	}
}

// Handler returns the fully instrumented handler — the surface tests mount
// on httptest.Server.
func (s *Server) Handler() http.Handler { return s.handler }

// statusWriter captures the response status for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// instrument wraps the mux with the shared middleware: the per-request
// timeout context, the status capture feeding the request/response
// conservation counters, and one structured log line per request.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.metrics.finish(sw.status)
		s.logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"dur_ms", float64(time.Since(start).Microseconds())/1000,
			"remote", r.RemoteAddr,
		)
	})
}

// handleMetrics: GET /metrics — daemon-wide counters and histograms, then
// the per-tenant series read live from the registry (queue depth gauges,
// swap counts, and the installed model's iteration/objective/pruning
// counters from its Report).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w)
	tenants := s.reg.list()
	fmt.Fprintf(w, "# TYPE ucpcd_tenants gauge\nucpcd_tenants %d\n", len(tenants))
	var breakersOpen int
	for _, t := range tenants {
		if t.breakerOpen.Load() {
			breakersOpen++
		}
	}
	fmt.Fprintf(w, "# TYPE ucpcd_push_breaker_open gauge\nucpcd_push_breaker_open %d\n", breakersOpen)
	if s.store != nil {
		// snapshot_age_seconds is the staleness of the *oldest* persisted
		// tenant — the daemon-wide recovery-point objective.
		age := 0.0
		for _, t := range tenants {
			last := t.lastSaveNano.Load()
			if last == 0 {
				continue
			}
			if a := time.Since(time.Unix(0, last)).Seconds(); a > age {
				age = a
			}
		}
		fmt.Fprintf(w, "# TYPE ucpcd_snapshot_age_seconds gauge\nucpcd_snapshot_age_seconds %s\n", formatFloat(age))
	}
	if len(tenants) == 0 {
		return
	}
	var depth int64
	for _, t := range tenants {
		depth += t.queued.Load()
	}
	fmt.Fprintf(w, "# TYPE ucpcd_queue_depth_objects gauge\nucpcd_queue_depth_objects %d\n", depth)
	writeSeries := func(name, typ string, value func(t *tenant) (string, bool)) {
		fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
		for _, t := range tenants {
			if v, ok := value(t); ok {
				fmt.Fprintf(w, "%s{tenant=%q} %s\n", name, t.id, v)
			}
		}
	}
	writeSeries("ucpcd_tenant_queue_depth_objects", "gauge", func(t *tenant) (string, bool) {
		return fmt.Sprint(t.queued.Load()), true
	})
	writeSeries("ucpcd_tenant_ingested_objects_total", "counter", func(t *tenant) (string, bool) {
		return fmt.Sprint(t.ingested.Load()), true
	})
	writeSeries("ucpcd_tenant_swaps_total", "counter", func(t *tenant) (string, bool) {
		return fmt.Sprint(t.swaps.Load()), true
	})
	writeSeries("ucpcd_tenant_model_version", "gauge", func(t *tenant) (string, bool) {
		return fmt.Sprint(t.serving.Load().version), true
	})
	writeSeries("ucpcd_tenant_stream_seen_objects", "gauge", func(t *tenant) (string, bool) {
		return fmt.Sprint(t.snapshotFit().Seen()), true
	})
	if s.cfg.PushTo != "" {
		writeSeries("ucpcd_tenant_push_success_total", "counter", func(t *tenant) (string, bool) {
			return fmt.Sprint(t.pushSuccess.Load()), true
		})
		writeSeries("ucpcd_tenant_push_failures_total", "counter", func(t *tenant) (string, bool) {
			return fmt.Sprint(t.pushFailures.Load()), true
		})
		writeSeries("ucpcd_tenant_push_breaker_open", "gauge", func(t *tenant) (string, bool) {
			if t.breakerOpen.Load() {
				return "1", true
			}
			return "0", true
		})
		writeSeries("ucpcd_tenant_last_push_seen_objects", "gauge", func(t *tenant) (string, bool) {
			return fmt.Sprint(t.lastPushSeen.Load()), true
		})
	}
	if s.store != nil {
		writeSeries("ucpcd_tenant_persisted_seen_objects", "gauge", func(t *tenant) (string, bool) {
			return fmt.Sprint(t.persistedSeen.Load()), true
		})
	}
	writeSeries("ucpcd_tenant_model_iterations", "gauge", func(t *tenant) (string, bool) {
		m := t.serving.Load().model
		if m == nil {
			return "", false
		}
		return fmt.Sprint(m.Report().Iterations), true
	})
	writeSeries("ucpcd_tenant_model_objective", "gauge", func(t *tenant) (string, bool) {
		m := t.serving.Load().model
		if m == nil {
			return "", false
		}
		return formatFloat(m.Report().Objective), true
	})
	writeSeries("ucpcd_tenant_model_pruned_candidates_total", "counter", func(t *tenant) (string, bool) {
		m := t.serving.Load().model
		if m == nil {
			return "", false
		}
		return fmt.Sprint(m.Report().PrunedCandidates), true
	})
	writeSeries("ucpcd_tenant_model_scanned_candidates_total", "counter", func(t *tenant) (string, bool) {
		m := t.serving.Load().model
		if m == nil {
			return "", false
		}
		return fmt.Sprint(m.Report().ScannedCandidates), true
	})
	// Admission series carry a route label, so they use their own writer
	// instead of writeSeries.
	writeAdmSeries := func(name, typ string, value func(ra *routeAdmission, now time.Time) (string, bool)) {
		fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
		for _, t := range tenants {
			now := t.adm.now()
			for r, route := range routeNames {
				if v, ok := value(&t.adm.routes[r], now); ok {
					fmt.Fprintf(w, "%s{tenant=%q,route=%q} %s\n", name, t.id, route, v)
				}
			}
		}
	}
	writeAdmSeries("ucpcd_tenant_admission_attempts_total", "counter", func(ra *routeAdmission, _ time.Time) (string, bool) {
		return fmt.Sprint(ra.attempts.Load()), true
	})
	writeAdmSeries("ucpcd_tenant_admitted_total", "counter", func(ra *routeAdmission, _ time.Time) (string, bool) {
		return fmt.Sprint(ra.admitted.Load()), true
	})
	writeAdmSeries("ucpcd_tenant_cost_ns_per_object", "gauge", func(ra *routeAdmission, _ time.Time) (string, bool) {
		est, ok := ra.cost.estimate()
		if !ok {
			return "", false
		}
		return formatFloat(est), true
	})
	writeAdmSeries("ucpcd_tenant_bucket_tokens", "gauge", func(ra *routeAdmission, now time.Time) (string, bool) {
		tokens, _, _ := ra.bucket.level(now)
		return formatFloat(tokens), true
	})
	writeAdmSeries("ucpcd_tenant_bucket_rate_objects_per_sec", "gauge", func(ra *routeAdmission, now time.Time) (string, bool) {
		_, rate, _ := ra.bucket.level(now)
		return formatFloat(rate), true
	})
	writeAdmSeries("ucpcd_tenant_bucket_burst_objects", "gauge", func(ra *routeAdmission, now time.Time) (string, bool) {
		_, _, burst := ra.bucket.level(now)
		return formatFloat(burst), true
	})
	fmt.Fprintf(w, "# TYPE ucpcd_tenant_shed_total counter\n")
	for _, t := range tenants {
		for r, route := range routeNames {
			ra := &t.adm.routes[r]
			fmt.Fprintf(w, "ucpcd_tenant_shed_total{tenant=%q,route=%q,code=\"429\"} %d\n", t.id, route, ra.shed429c.Load())
			fmt.Fprintf(w, "ucpcd_tenant_shed_total{tenant=%q,route=%q,code=\"413\"} %d\n", t.id, route, ra.shed413c.Load())
		}
	}
}

// Serve accepts connections on l until Shutdown. It returns the
// http.Server error (http.ErrServerClosed after a clean Shutdown is
// swallowed — a clean exit returns nil).
func (s *Server) Serve(l net.Listener) error {
	err := s.http.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Shutdown drains the daemon gracefully: stop accepting, wait for in-flight
// requests (http.Server.Shutdown), close every tenant's ingestion queue and
// wait for the ingesters to fold what was already accepted, stop the
// background loops, and only then — after the drain, so no trailing observe
// is lost between drain and persist — take the final snapshot of every
// tenant. ctx bounds the whole drain.
func (s *Server) Shutdown(ctx context.Context) error {
	if err := s.http.Shutdown(ctx); err != nil {
		return err
	}
	if err := s.reg.closeAll(ctx); err != nil {
		return err
	}
	s.stopOnce.Do(func() { close(s.stopLoops) })
	s.loopWG.Wait()
	if s.store != nil {
		if err := s.persistAll(); err != nil {
			return err
		}
	}
	return nil
}

// Abort simulates a crash for fault-injection tests: background loops stop
// without a final snapshot, the listener is torn down without draining, and
// ingestion queues close so goroutines exit — but nothing in memory reaches
// disk, exactly like a kill -9. After Abort returns, no goroutine of this
// server touches the state directory again, so a replacement Server may
// safely reopen it.
func (s *Server) Abort() {
	s.stopOnce.Do(func() { close(s.stopLoops) })
	s.loopWG.Wait()
	_ = s.http.Close()
	for _, t := range s.reg.list() {
		t.closeQueue()
	}
}
