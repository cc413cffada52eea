package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"ucpc"
	"ucpc/internal/datasets"
)

// errBadRequest marks client-side request defects (malformed JSON, invalid
// tenant specs, unknown algorithm names); every handler maps it to 400.
var errBadRequest = errors.New("bad request")

// httpStatus maps the library's typed errors onto HTTP status codes: input
// defects are 400, state conflicts (cold stream, no model, warm-start
// impossibility) are 409, exhausted budgets are 429, and an expired
// per-request budget is 503. Everything unrecognized is a 500.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, errBadRequest),
		errors.Is(err, ucpc.ErrBadK),
		errors.Is(err, ucpc.ErrBadConfig),
		errors.Is(err, ucpc.ErrDimMismatch),
		errors.Is(err, ucpc.ErrEmptyDataset),
		errors.Is(err, ucpc.ErrBadModelFormat),
		errors.Is(err, ucpc.ErrModelVersion),
		errors.Is(err, datasets.ErrMalformed):
		return http.StatusBadRequest
	case errors.Is(err, ucpc.ErrStreamCold),
		errors.Is(err, ucpc.ErrWarmStartUnsupported),
		errors.Is(err, errNoModel),
		errors.Is(err, errBusy):
		return http.StatusConflict
	case errors.Is(err, ucpc.ErrStreamBudget):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrCorruptSnapshot),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

var (
	// errNoModel marks serving requests against a tenant that has not
	// installed a model yet (no snapshot, fit, or upload has happened).
	errNoModel = errors.New("no model installed (snapshot, fit, or upload one first)")
	// errBusy marks a refresh rejected because one is already running.
	errBusy = errors.New("a refresh is already running")
)

// tenantInfo is the JSON shape of one tenant on the read surface.
type tenantInfo struct {
	ID        string `json:"id"`
	Algorithm string `json:"algorithm"`
	K         int    `json:"k"`
	Shards    int    `json:"shards,omitempty"`

	HasModel     bool    `json:"has_model"`
	ModelVersion int64   `json:"model_version"`
	Swaps        int64   `json:"swaps"`
	ModelK       int     `json:"model_k,omitempty"`
	Iterations   int     `json:"iterations,omitempty"`
	Objective    float64 `json:"objective,omitempty"`

	Ingested      int64  `json:"ingested_objects"`
	Queued        int64  `json:"queued_objects"`
	StreamSeen    int64  `json:"stream_seen"`
	StreamBatches int    `json:"stream_batches"`
	Refreshing    bool   `json:"refreshing,omitempty"`
	IngestError   string `json:"last_ingest_error,omitempty"`
	RefreshError  string `json:"last_refresh_error,omitempty"`

	// Durability/federation surface (zero unless the daemon has a state
	// dir / push target respectively).
	PersistedSeen     int64  `json:"persisted_seen,omitempty"`
	LastSnapshotNanos int64  `json:"last_snapshot_unix_nano,omitempty"`
	PushSuccess       int64  `json:"push_success,omitempty"`
	PushFailures      int64  `json:"push_failures,omitempty"`
	PushBreakerOpen   bool   `json:"push_breaker_open,omitempty"`
	LastPushSeen      int64  `json:"last_push_seen,omitempty"`
	PushError         string `json:"last_push_error,omitempty"`
}

func (t *tenant) info() tenantInfo {
	sm := t.serving.Load()
	info := tenantInfo{
		ID: t.id, Algorithm: t.alg, K: t.k, Shards: t.shards,
		ModelVersion: sm.version,
		Swaps:        t.swaps.Load(),
		Ingested:     t.ingested.Load(),
		Queued:       t.queued.Load(),
		Refreshing:   t.refreshing.Load(),
		IngestError:  t.lastIngestError(),
		RefreshError: t.lastRefreshError(),

		PersistedSeen:     t.persistedSeen.Load(),
		LastSnapshotNanos: t.lastSaveNano.Load(),
		PushSuccess:       t.pushSuccess.Load(),
		PushFailures:      t.pushFailures.Load(),
		PushBreakerOpen:   t.breakerOpen.Load(),
		LastPushSeen:      t.lastPushSeen.Load(),
		PushError:         t.lastPushError(),
	}
	fit := t.snapshotFit()
	info.StreamSeen = fit.Seen()
	info.StreamBatches = fit.Batches()
	if m := sm.model; m != nil {
		info.HasModel = true
		info.ModelK = m.K()
		rep := m.Report()
		info.Iterations = rep.Iterations
		if rep.Objective == rep.Objective { // omit NaN (json cannot carry it)
			info.Objective = rep.Objective
		}
	}
	return info
}

// writeJSON renders v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr renders err as {"error": "..."} with its mapped status.
func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, httpStatus(err), map[string]string{"error": err.Error()})
}

// tenantOr404 resolves the {id} path value, answering 404 itself when the
// tenant does not exist.
func (s *Server) tenantOr404(w http.ResponseWriter, r *http.Request) (*tenant, bool) {
	id := r.PathValue("id")
	t, ok := s.reg.get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("unknown tenant %q", id)})
		return nil, false
	}
	return t, true
}

// handleCreateTenant: POST /v1/tenants.
func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var spec TenantSpec
	if err := s.decodeBody(w, r, &spec); err != nil {
		writeErr(w, err)
		return
	}
	t, err := newTenant(spec, s.cfg.QueueChunks, s.metrics, s.admissionDefaults())
	if err != nil {
		writeErr(w, err)
		return
	}
	if !s.reg.add(t) {
		t.closeQueue()
		writeJSON(w, http.StatusConflict, map[string]string{
			"error": fmt.Sprintf("tenant %q already exists", spec.ID)})
		return
	}
	s.startPush(t)
	if s.store != nil {
		// Persist the spec right away so a crash before the first timer tick
		// still recovers the tenant (empty — but existing, with its config).
		if err := s.persistTenant(t); err != nil {
			s.logger.Error("initial snapshot failed", "tenant", t.id, "error", err)
		}
	}
	s.logger.Info("tenant created", "tenant", t.id, "algorithm", t.alg, "k", t.k, "shards", t.shards)
	writeJSON(w, http.StatusCreated, t.info())
}

// handleListTenants: GET /v1/tenants.
func (s *Server) handleListTenants(w http.ResponseWriter, _ *http.Request) {
	ts := s.reg.list()
	infos := make([]tenantInfo, len(ts))
	for i, t := range ts {
		infos[i] = t.info()
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": infos})
}

// handleGetTenant: GET /v1/tenants/{id}.
func (s *Server) handleGetTenant(w http.ResponseWriter, r *http.Request) {
	if t, ok := s.tenantOr404(w, r); ok {
		writeJSON(w, http.StatusOK, t.info())
	}
}

// handleDeleteTenant: DELETE /v1/tenants/{id}. The ingester drains what is
// already queued in the background; new requests see 404 immediately.
func (s *Server) handleDeleteTenant(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.reg.remove(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": fmt.Sprintf("unknown tenant %q", id)})
		return
	}
	t.closeQueue()
	if s.store != nil {
		if err := s.store.Remove(id); err != nil {
			s.logger.Error("removing persisted state failed", "tenant", id, "error", err)
		}
	}
	s.logger.Info("tenant deleted", "tenant", id)
	w.WriteHeader(http.StatusNoContent)
}

// handleObserve: POST /v1/tenants/{id}/observe — streaming ingestion.
// Admission decides on the scanned object count; the payload is then parsed
// synchronously (malformed input stays a 400 on this request) and handed to
// the tenant's bounded queue. A full queue is explicit backpressure: 429
// with Retry-After, and the payload is dropped.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOr404(w, r)
	if !ok {
		return
	}
	p, err := s.readPayload(w, r, false)
	if err != nil {
		writeErr(w, err)
		return
	}
	if dec := t.adm.admit(routeObserve, p.n, t.queued.Load()); dec.verdict != admitOK {
		writeShed(w, t.id, "observe", dec)
		return
	}
	ds, err := p.dataset()
	if err != nil {
		writeErr(w, err)
		return
	}
	if !t.enqueue(ds) {
		s.metrics.queueRejected.Add(1)
		// Price the backpressure: how long the ingester needs to drain the
		// queued objects at the measured per-object ingest cost.
		retry := retryAfterSeconds(t.adm.queueRetryAfter(t.queued.Load()))
		w.Header().Set("Retry-After", fmt.Sprint(retry))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{
			"error": fmt.Sprintf("tenant %q ingestion queue is full", t.id)})
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"queued_objects": t.queued.Load(),
		"accepted":       len(ds),
	})
}

// handleFit: POST /v1/tenants/{id}/fit — synchronous batch fit of the
// posted objects with the tenant's algorithm and Config, installed as the
// serving model on success. Runs under the request context, so the
// per-request timeout bounds the fit.
func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOr404(w, r)
	if !ok {
		return
	}
	p, err := s.readPayload(w, r, false)
	if err != nil {
		writeErr(w, err)
		return
	}
	ds, err := p.dataset()
	if err != nil {
		writeErr(w, err)
		return
	}
	clusterer := &ucpc.Clusterer{Algorithm: t.alg, Config: t.cfg}
	model, err := clusterer.Fit(r.Context(), ds, t.k)
	if err != nil {
		writeErr(w, err)
		return
	}
	version := t.install(model, s.metrics)
	s.pokeSnapshot()
	s.logger.Info("model fitted", "tenant", t.id, "objects", len(ds), "version", version)
	writeJSON(w, http.StatusOK, t.info())
}

// handleSnapshot: POST /v1/tenants/{id}/snapshot — freeze the stream
// engine's current centroids as a Model and hot-swap it in. The stream
// keeps running; a cold stream (fewer than k objects ingested) is 409.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOr404(w, r)
	if !ok {
		return
	}
	model, err := t.snapshotFit().Snapshot()
	if err != nil {
		writeErr(w, err)
		return
	}
	version := t.install(model, s.metrics)
	s.pokeSnapshot()
	s.logger.Info("model swapped", "tenant", t.id, "source", "snapshot", "version", version)
	writeJSON(w, http.StatusOK, t.info())
}

// refreshRequest is the body of POST /v1/tenants/{id}/refresh. With mode
// "stream" the tenant's ingestion engine is re-begun warm from the current
// serving model (BeginFrom). Otherwise the posted objects are refit in the
// background with FitFrom (warm-started batch refit) and hot-swapped in
// when done; the response is 202 immediately — serving never blocks.
type refreshRequest struct {
	Mode string `json:"mode,omitempty"`
	objectsPayload
}

// handleRefresh: POST /v1/tenants/{id}/refresh.
func (s *Server) handleRefresh(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOr404(w, r)
	if !ok {
		return
	}
	req, err := s.readPayload(w, r, true)
	if err != nil {
		writeErr(w, err)
		return
	}
	cur := t.serving.Load().model
	if cur == nil {
		writeErr(w, fmt.Errorf("serve: tenant %q: %w", t.id, errNoModel))
		return
	}
	switch req.Mode {
	case "stream":
		if t.shards != 0 {
			writeErr(w, fmt.Errorf("serve: tenant %q is sharded; stream refresh requires a stream tenant: %w",
				t.id, errBadRequest))
			return
		}
		fit, err := (&ucpc.StreamClusterer{Config: t.scfg}).BeginFrom(r.Context(), cur)
		if err != nil {
			writeErr(w, err)
			return
		}
		t.mu.Lock()
		t.fit = fit
		t.mu.Unlock()
		s.logger.Info("stream re-begun from serving model", "tenant", t.id)
		writeJSON(w, http.StatusOK, t.info())
	case "", "batch":
		ds, err := req.dataset()
		if err != nil {
			writeErr(w, err)
			return
		}
		if !t.refreshing.CompareAndSwap(false, true) {
			writeErr(w, fmt.Errorf("serve: tenant %q: %w", t.id, errBusy))
			return
		}
		go func() {
			defer t.refreshing.Store(false)
			ctx, cancel := context.WithTimeout(context.Background(), s.cfg.FitTimeout)
			defer cancel()
			clusterer := &ucpc.Clusterer{Algorithm: t.alg, Config: t.cfg}
			model, err := clusterer.FitFrom(ctx, cur, ds)
			if err != nil {
				msg := err.Error()
				t.refreshErr.Store(&msg)
				s.logger.Error("background refresh failed", "tenant", t.id, "error", msg)
				return
			}
			version := t.install(model, s.metrics)
			s.pokeSnapshot()
			s.logger.Info("model swapped", "tenant", t.id, "source", "refresh", "version", version)
		}()
		writeJSON(w, http.StatusAccepted, map[string]any{"status": "refreshing", "objects": len(ds)})
	default:
		writeErr(w, fmt.Errorf("serve: unknown refresh mode %q (valid: stream, batch): %w", req.Mode, errBadRequest))
	}
}

// handleAssign: POST /v1/tenants/{id}/assign — the serving path. Objects
// are scored against the frozen model behind the atomic pointer through the
// concurrency-safe Model.Assign; the request context (with the server's
// per-request timeout) cancels long batches.
func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOr404(w, r)
	if !ok {
		return
	}
	// The cost model meters the whole serving path — parse through Assign —
	// so the bucket sizing reflects what a request actually costs the box.
	// wallStart is the same span on the real clock: it feeds the latency
	// histogram, the figure the admission layer's budget is judged against.
	entry := t.adm.now()
	wallStart := time.Now()
	p, err := s.readPayload(w, r, false)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Admission decides on the object count the scan yields, before any
	// token is parsed, so a shed request costs the daemon little more than
	// reading its body.
	dec := t.adm.admit(routeAssign, p.n, 0)
	if dec.verdict != admitOK {
		writeShed(w, t.id, "assign", dec)
		return
	}
	defer t.adm.exit(routeAssign, p.n)
	ds, err := p.dataset()
	if err != nil {
		writeErr(w, err)
		return
	}
	sm := t.serving.Load()
	model := sm.model
	if model == nil {
		writeErr(w, fmt.Errorf("serve: tenant %q: %w", t.id, errNoModel))
		return
	}
	assign, err := model.Assign(r.Context(), ds)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Only uncontended requests sample the cost model: a request admitted
	// into an empty pipeline measures true service time, while a contended
	// wall time folds co-runners' queueing into the estimate. Under
	// saturation the estimate simply freezes at its last clean value.
	if dec.conc == 1 {
		t.adm.observeCost(routeAssign, len(ds), t.adm.now().Sub(entry))
	}
	s.metrics.assignLatency.observe(time.Since(wallStart).Seconds())
	s.metrics.assignBatch.observe(float64(len(ds)))
	s.metrics.assignObjects.Add(int64(len(ds)))
	writeJSON(w, http.StatusOK, map[string]any{
		"assign":        assign,
		"model_version": sm.version,
		"k":             model.K(),
	})
}

// writeShed renders an admission refusal: 429 with a Retry-After priced
// from the bucket refill deficit (plus queue drain on the observe path), or
// 413 with the largest admissible batch. Admission never sheds with 5xx.
func writeShed(w http.ResponseWriter, tenantID, route string, dec decision) {
	switch dec.verdict {
	case shed429:
		w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds(dec.retryAfter)))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{
			"error": fmt.Sprintf("tenant %q: %s rate limit exceeded", tenantID, route)})
	case shed413:
		writeJSON(w, http.StatusRequestEntityTooLarge, map[string]any{
			"error":             fmt.Sprintf("tenant %q: batch exceeds the %s admission burst", tenantID, route),
			"max_batch_objects": dec.maxBatch,
		})
	}
}

// handleGetModel: GET /v1/tenants/{id}/model — the serving model in the
// versioned UCPM wire format (SaveModel), for checkpointing or shipping to
// another daemon.
func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOr404(w, r)
	if !ok {
		return
	}
	sm := t.serving.Load()
	model := sm.model
	if model == nil {
		writeErr(w, fmt.Errorf("serve: tenant %q: %w", t.id, errNoModel))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Model-Version", fmt.Sprint(sm.version))
	if err := ucpc.SaveModel(w, model); err != nil {
		s.logger.Error("model download failed mid-write", "tenant", t.id, "error", err)
	}
}

// handlePutModel: PUT /v1/tenants/{id}/model — upload a UCPM payload
// (LoadModel) and hot-swap it in as the serving model.
func (s *Server) handlePutModel(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOr404(w, r)
	if !ok {
		return
	}
	model, err := ucpc.LoadModel(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeErr(w, err)
		return
	}
	version := t.install(model, s.metrics)
	s.pokeSnapshot()
	s.logger.Info("model swapped", "tenant", t.id, "source", "upload", "version", version)
	writeJSON(w, http.StatusOK, t.info())
}

// handleGetStats: GET /v1/tenants/{id}/stats — the stream engine's current
// weighted sufficient statistics in the versioned UCWS wire format, the
// payload a remote daemon imports with POST …/stats. Stream tenants only.
func (s *Server) handleGetStats(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOr404(w, r)
	if !ok {
		return
	}
	exporter, ok := t.snapshotFit().(interface{ ExportStats() ([]byte, error) })
	if !ok {
		writeErr(w, fmt.Errorf("serve: tenant %q is sharded; stats export requires a stream tenant: %w",
			t.id, errBadRequest))
		return
	}
	payload, err := exporter.ExportStats()
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(payload)
}

// handlePostStats: POST /v1/tenants/{id}/stats — fold a remote shard's
// UCWS statistics payload into every subsequent snapshot of a sharded
// tenant. Without a query parameter the payload is *added*
// (ShardedFit.AddRemoteStats — one-shot shipments). With ?source=<key> it
// *replaces* that source's previous payload (ShardedFit.SetRemoteStats) —
// the shape the federation push loop uses, so an edge re-pushing its
// cumulative statistics every few seconds is counted exactly once.
func (s *Server) handlePostStats(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenantOr404(w, r)
	if !ok {
		return
	}
	fit := t.snapshotFit()
	payload, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeErr(w, fmt.Errorf("serve: reading stats payload: %v: %w", err, errBadRequest))
		return
	}
	if source := r.URL.Query().Get("source"); source != "" {
		keyed, ok := fit.(interface{ SetRemoteStats(string, []byte) error })
		if !ok {
			writeErr(w, fmt.Errorf("serve: tenant %q is a stream tenant; stats import requires shards >= 1: %w",
				t.id, errBadRequest))
			return
		}
		if err := keyed.SetRemoteStats(source, payload); err != nil {
			writeErr(w, err)
			return
		}
		s.logger.Info("remote statistics replaced", "tenant", t.id, "source", source, "bytes", len(payload))
		writeJSON(w, http.StatusOK, map[string]string{"status": "merged", "source": source})
		return
	}
	importer, ok := fit.(interface{ AddRemoteStats([]byte) error })
	if !ok {
		writeErr(w, fmt.Errorf("serve: tenant %q is a stream tenant; stats import requires shards >= 1: %w",
			t.id, errBadRequest))
		return
	}
	if err := importer.AddRemoteStats(payload); err != nil {
		writeErr(w, err)
		return
	}
	s.logger.Info("remote statistics merged", "tenant", t.id, "bytes", len(payload))
	writeJSON(w, http.StatusOK, map[string]string{"status": "merged"})
}
