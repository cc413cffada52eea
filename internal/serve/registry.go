package serve

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ucpc"
)

// fitter is the streaming-ingestion surface shared by ucpc.StreamFit and
// ucpc.ShardedFit: a tenant holds exactly one of the two (Shards == 0 vs
// Shards >= 1) and the ingester drives it through this interface. The extra
// capabilities — ExportStats on a stream fit, AddRemoteStats on a sharded
// fit — are reached by type assertion in the stats handlers.
type fitter interface {
	Observe(ctx context.Context, objs ucpc.Dataset) error
	Snapshot() (*ucpc.Model, error)
	Seen() int64
	Batches() int
}

// TenantSpec is the JSON body of POST /v1/tenants: the tenant id, the
// algorithm (validated against the shared algorithm registry — the same
// names ucpc.AlgorithmNames lists), the cluster count, and the per-tenant
// run configuration. Zero values mean the library defaults throughout.
type TenantSpec struct {
	ID        string `json:"id"`
	Algorithm string `json:"algorithm,omitempty"`
	K         int    `json:"k"`
	// Workers/MaxIter/Seed/Pruning populate the tenant's ucpc.Config (batch
	// fits and FitFrom refreshes; Workers also sizes Model.Assign serving
	// and the stream's per-batch scans).
	Workers int    `json:"workers,omitempty"`
	MaxIter int    `json:"max_iter,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	// Pruning is "on", "off", or "" (= on; results are identical either
	// way, only the amount of distance arithmetic differs). It applies to
	// batch refits only: serving and stream ingestion assign each object
	// once, by a plain scan.
	Pruning string `json:"pruning,omitempty"`
	// BatchSize/Decay/MaxBatches populate the tenant's ucpc.StreamConfig
	// (the observe ingestion path).
	BatchSize  int     `json:"batch_size,omitempty"`
	Decay      float64 `json:"decay,omitempty"`
	MaxBatches int     `json:"max_batches,omitempty"`
	// Shards selects the ingestion engine: 0 = a single StreamClusterer
	// engine (supports GET stats export), >= 1 = a ShardedClusterer
	// coordinator with that many local shards (supports POST stats import
	// from remote UCWS payloads).
	Shards int `json:"shards,omitempty"`
	// QueueChunks overrides the server's bounded ingestion-queue capacity
	// for this tenant, counted in observe payloads (0 = server default).
	QueueChunks int `json:"queue_chunks,omitempty"`
	// Admission is "on", "off", or "" (= the server default set by the
	// -admission flag). "on" starts the tenant in auto mode: token buckets
	// on assign and observe sized from the measured per-object cost against
	// the daemon's latency budget.
	Admission string `json:"admission,omitempty"`
}

var tenantIDPattern = regexp.MustCompile(`^[A-Za-z0-9_-]{1,64}$`)

// config resolves the spec into the tenant's batch and stream configs.
func (s TenantSpec) config() (ucpc.Config, ucpc.StreamConfig, error) {
	var prune ucpc.PruneMode
	switch s.Pruning {
	case "", "on", "auto":
		prune = ucpc.PruneOn
	case "off":
		prune = ucpc.PruneOff
	default:
		return ucpc.Config{}, ucpc.StreamConfig{},
			fmt.Errorf("serve: invalid pruning %q (valid: on, off): %w", s.Pruning, errBadRequest)
	}
	cfg := ucpc.Config{Workers: s.Workers, MaxIter: s.MaxIter, Seed: s.Seed, Pruning: prune}
	scfg := ucpc.StreamConfig{
		BatchSize: s.BatchSize, Decay: s.Decay, MaxBatches: s.MaxBatches,
		Workers: s.Workers, Seed: s.Seed,
	}
	if err := cfg.Validate(); err != nil {
		return cfg, scfg, err
	}
	return cfg, scfg, scfg.Validate()
}

// tenant is one isolated clustering session: a frozen serving model behind
// an atomic pointer (readers never block, swaps are one pointer store), a
// streaming ingestion engine fed by a bounded queue, and the counters the
// /metrics endpoint exports.
type tenant struct {
	id     string
	alg    string
	k      int
	shards int
	cfg    ucpc.Config
	scfg   ucpc.StreamConfig
	// spec is the exact creation spec, retained so persistence can write it
	// into the snapshot manifest and restore can rebuild the tenant from it.
	spec TenantSpec

	// serving is the serving model and its version, swapped as one pair
	// so a reader never pairs a model with another model's version. It is
	// never nil; its model is nil until the first snapshot/fit/upload.
	// swaps counts installs for the metrics surface.
	serving atomic.Pointer[servingModel]
	swaps   atomic.Int64

	// mu guards fit (the pointer — the engines themselves are
	// concurrency-safe) and refresh bookkeeping.
	mu  sync.Mutex
	fit fitter

	// refreshing marks one in-flight background FitFrom; concurrent
	// refreshes are rejected with 409. refreshErr keeps the most recent
	// background-refresh failure for the tenant-info surface.
	refreshing atomic.Bool
	refreshErr atomic.Pointer[string]

	// queue is the bounded ingestion queue: observe handlers enqueue
	// payloads without blocking (full queue = 429) and the per-tenant
	// ingester goroutine drains it into the stream engine. qmu serializes
	// enqueue against close so Delete can never panic a handler.
	queue     chan ucpc.Dataset
	qmu       sync.RWMutex
	qclosed   bool
	queued    atomic.Int64 // objects currently waiting in queue
	ingested  atomic.Int64 // objects folded into the stream engine
	done      chan struct{}
	ingestErr atomic.Pointer[string]

	// Persistence bookkeeping (used only when the server has a state dir).
	// persistMu serializes snapshot writes for this tenant; the persisted*
	// atomics record what the last durable snapshot contained so unchanged
	// tenants are skipped, and lastSaveNano feeds snapshot_age_seconds.
	persistMu        sync.Mutex
	persistedSeen    atomic.Int64
	persistedVersion atomic.Int64
	lastSaveNano     atomic.Int64

	// adm is the tenant's admission-control state (cost models, token
	// buckets, conservation counters); always non-nil, possibly in off mode.
	adm *admission

	// Federation push bookkeeping (used only when the server has a push
	// target). stopPush ends the tenant's push loop on deletion; the
	// counters feed /metrics and the tenant-info surface, and lastPushSeen
	// is the engine's Seen at the moment of the last accepted push.
	stopPush     chan struct{}
	pushSuccess  atomic.Int64
	pushFailures atomic.Int64
	breakerOpen  atomic.Bool
	lastPushSeen atomic.Int64
	pushErr      atomic.Pointer[string]
}

// admissionDefaults carries the server-level admission configuration into
// newTenant: whether tenants default to auto mode, the latency budget the
// buckets defend, and the clock (time.Now outside tests).
type admissionDefaults struct {
	enabled bool
	budget  time.Duration
	now     func() time.Time
}

// newTenant builds the tenant and starts its ingester goroutine.
func newTenant(spec TenantSpec, queueChunks int, m *metrics, admDefaults admissionDefaults) (*tenant, error) {
	if !tenantIDPattern.MatchString(spec.ID) {
		return nil, fmt.Errorf("serve: tenant id %q must match %s: %w",
			spec.ID, tenantIDPattern, errBadRequest)
	}
	mode := modeOff
	switch spec.Admission {
	case "on", "auto":
		mode = modeAuto
	case "off":
	case "":
		if admDefaults.enabled {
			mode = modeAuto
		}
	default:
		return nil, fmt.Errorf("serve: tenant %q: invalid admission %q (valid: on, off): %w",
			spec.ID, spec.Admission, errBadRequest)
	}
	if spec.K < 1 {
		return nil, fmt.Errorf("serve: tenant %q: k %d: %w", spec.ID, spec.K, ucpc.ErrBadK)
	}
	if spec.Shards < 0 {
		return nil, fmt.Errorf("serve: tenant %q: negative shards %d: %w", spec.ID, spec.Shards, ucpc.ErrBadConfig)
	}
	if spec.QueueChunks < 0 {
		return nil, fmt.Errorf("serve: tenant %q: negative queue_chunks %d: %w", spec.ID, spec.QueueChunks, ucpc.ErrBadConfig)
	}
	cfg, scfg, err := spec.config()
	if err != nil {
		return nil, err
	}
	if _, err := ucpc.NewAlgorithm(spec.Algorithm, cfg); err != nil {
		return nil, fmt.Errorf("%w: %w", err, errBadRequest)
	}
	var fit fitter
	if spec.Shards == 0 {
		fit, err = (&ucpc.StreamClusterer{Config: scfg}).Begin(context.Background(), spec.K)
	} else {
		fit, err = (&ucpc.ShardedClusterer{Config: scfg, Shards: spec.Shards}).Begin(context.Background(), spec.K)
	}
	if err != nil {
		return nil, err
	}
	if spec.QueueChunks > 0 {
		queueChunks = spec.QueueChunks
	}
	t := &tenant{
		id: spec.ID, alg: spec.Algorithm, k: spec.K, shards: spec.Shards,
		cfg: cfg, scfg: scfg, spec: spec,
		fit:      fit,
		adm:      newAdmission(mode, admDefaults.budget, m, admDefaults.now),
		queue:    make(chan ucpc.Dataset, queueChunks),
		done:     make(chan struct{}),
		stopPush: make(chan struct{}),
	}
	t.serving.Store(&servingModel{})
	go t.ingest(m)
	return t, nil
}

// servingModel is a serving model with the install count that published
// it. Requests load the pair once, so the version they report always names
// the model that answered them.
type servingModel struct {
	model   *ucpc.Model
	version int64
}

// install atomically publishes m as the tenant's serving model under the
// next version — the hot swap — and returns that version. In-flight Assign
// calls keep using the pair they loaded; new calls see the new one. Never
// blocks: concurrent installs retry the compare-and-swap.
func (t *tenant) install(m *ucpc.Model, mx *metrics) int64 {
	for {
		cur := t.serving.Load()
		next := &servingModel{model: m, version: cur.version + 1}
		if t.serving.CompareAndSwap(cur, next) {
			t.swaps.Add(1)
			mx.swaps.Add(1)
			// Re-weight the assign cost model from the new model's
			// pruning counters before any request against it is measured.
			t.adm.onInstall(m.Report(), t.k)
			return next.version
		}
	}
}

// enqueue hands one observe payload to the ingester without blocking:
// false means the bounded queue is full (or the tenant is deleted) and the
// caller must answer 429.
func (t *tenant) enqueue(ds ucpc.Dataset) bool {
	t.qmu.RLock()
	defer t.qmu.RUnlock()
	if t.qclosed {
		return false
	}
	select {
	case t.queue <- ds:
		t.queued.Add(int64(len(ds)))
		return true
	default:
		return false
	}
}

// ingest is the tenant's single ingester goroutine: it drains the queue
// into the stream engine until the queue is closed (tenant deletion or
// server shutdown), then signals done. An Observe failure is recorded for
// the tenant-info and metrics surfaces and does not stop the ingester —
// later payloads may be well-formed again.
func (t *tenant) ingest(m *metrics) {
	defer close(t.done)
	for ds := range t.queue {
		t.mu.Lock()
		fit := t.fit
		t.mu.Unlock()
		start := t.adm.now()
		err := fit.Observe(context.Background(), ds)
		t.adm.observeCost(routeObserve, len(ds), t.adm.now().Sub(start))
		t.queued.Add(-int64(len(ds)))
		if err != nil {
			msg := err.Error()
			t.ingestErr.Store(&msg)
			continue
		}
		t.ingested.Add(int64(len(ds)))
		m.ingested.Add(int64(len(ds)))
	}
}

// closeQueue stops the ingester after it drains what is already queued and
// ends the tenant's federation push loop. Safe to call more than once.
func (t *tenant) closeQueue() {
	t.qmu.Lock()
	defer t.qmu.Unlock()
	if !t.qclosed {
		t.qclosed = true
		close(t.queue)
		close(t.stopPush)
	}
}

// snapshotFit returns the current stream engine.
func (t *tenant) snapshotFit() fitter {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fit
}

// lastIngestError returns the most recent Observe failure message ("" when
// none).
func (t *tenant) lastIngestError() string {
	if p := t.ingestErr.Load(); p != nil {
		return *p
	}
	return ""
}

// lastPushError returns the most recent federation-push failure message
// ("" when none).
func (t *tenant) lastPushError() string {
	if p := t.pushErr.Load(); p != nil {
		return *p
	}
	return ""
}

// lastRefreshError returns the most recent background-refresh failure
// message ("" when none).
func (t *tenant) lastRefreshError() string {
	if p := t.refreshErr.Load(); p != nil {
		return *p
	}
	return ""
}

// registry is the multi-tenant model registry: id → tenant.
type registry struct {
	mu      sync.RWMutex
	tenants map[string]*tenant
}

func newRegistry() *registry { return &registry{tenants: make(map[string]*tenant)} }

func (r *registry) get(id string) (*tenant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.tenants[id]
	return t, ok
}

// add registers t; false means the id is taken.
func (r *registry) add(t *tenant) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.tenants[t.id]; dup {
		return false
	}
	r.tenants[t.id] = t
	return true
}

// remove unregisters and returns the tenant; the caller closes its queue.
func (r *registry) remove(id string) (*tenant, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.tenants[id]
	if ok {
		delete(r.tenants, id)
	}
	return t, ok
}

// list returns the tenants sorted by id.
func (r *registry) list() []*tenant {
	r.mu.RLock()
	ts := make([]*tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		ts = append(ts, t)
	}
	r.mu.RUnlock()
	sort.Slice(ts, func(i, j int) bool { return ts[i].id < ts[j].id })
	return ts
}

// closeAll closes every tenant's queue and waits for the ingesters to
// drain, honoring ctx — the tenant half of graceful shutdown.
func (r *registry) closeAll(ctx context.Context) error {
	for _, t := range r.list() {
		t.closeQueue()
	}
	for _, t := range r.list() {
		select {
		case <-t.done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
