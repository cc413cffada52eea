// Package stream implements the chunked mini-batch fitting engine behind
// ucpc.StreamClusterer: an online UCPC variant for datasets that do not fit
// in one in-memory pass.
//
// The engine owns one *resident window* — a growable structure-of-arrays
// moment store (uncertain.NewMoments) that is refilled with each mini-batch
// and recycled between batches — so the resident footprint is O(BatchSize·m)
// regardless of how many objects stream through. Each batch is scored
// against the current centroids by one full nearest-centroid scan
// (core.Assigner with its bounds disabled: a batch is assigned once, so no
// bound would ever be reused), then folded into per-cluster weighted
// sufficient statistics (core.WStats) with an optional per-batch
// exponential forgetting factor. The centroid read-out
//
//	mean_c = S_c/W_c,  add_c = Ψ_c/W_c²
//
// is the weighted Theorem-2 U-centroid, and with Decay = 0 the update
// schedule is exactly the mini-batch k-means 1/n_c decaying learning rate:
// a batch of b_c fresh members moves centroid c by the fraction
// b_c/(n_c + b_c) toward the batch mean.
//
// An Engine is safe for concurrent use: Observe calls serialize behind one
// mutex, and Snapshot returns an independent frozen copy of the centroid
// state.
package stream

import (
	"context"
	"fmt"
	"math"
	"sync"

	"ucpc/internal/clustering"
	"ucpc/internal/core"
	"ucpc/internal/eval"
	"ucpc/internal/rng"
	"ucpc/internal/uncertain"
)

// Engine is the mini-batch fitting core. Construct with New (cold start:
// the seeding window picks the better of two refined restarts) or NewFrom
// (warm start from a frozen model's centroid state).
type Engine struct {
	mu  sync.Mutex
	k   int
	m   int // 0 until the first Observe fixes the dimensionality
	cfg clustering.StreamConfig
	bs  int // resolved batch size
	r   *rng.RNG

	store  *uncertain.Moments // resident window, recycled per batch
	base   int64              // global index of resident row 0 (stable ids)
	assign []int              // per-row scratch, reused across batches
	asg    *core.Assigner
	ws     *core.WStats

	// seedObjs buffers the seeding window's objects (references only,
	// objects are immutable) so the restart selection can score both
	// refined candidates with the paper's internal validity criterion;
	// released as soon as seeding completes.
	seedObjs uncertain.Dataset

	// means/adds are the authoritative centroid state the next batch is
	// scored against. They are rewritten from ws after every processed
	// batch but *copied verbatim* at warm-start seeding, so a snapshot
	// taken before any batch reproduces the seed model's centroids bit for
	// bit (re-deriving mean = (mean·w)/w from the statistics would round
	// differently).
	means, adds []float64

	seeded     bool // centroids initialized (k-means++ done or warm seed)
	hasMembers bool
	seen       int64
	batches    int
	maxBytes   int64 // high-water resident store footprint
}

// New returns a cold-start engine for k clusters. The dimensionality is
// fixed by the first observed object; as soon as k objects have been
// observed, the first window is refined to a Lloyd fixed point from both
// a random partition and a k-means++ seeding, and the candidate scoring
// higher on the internal validity criterion Q becomes the initial
// centroid state (see seedResident).
func New(k int, cfg clustering.StreamConfig) (*Engine, error) {
	if k < 1 {
		return nil, fmt.Errorf("stream: k=%d: %w", k, clustering.ErrBadK)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	return &Engine{
		k:   k,
		cfg: cfg,
		bs:  cfg.BatchSizeOrDefault(),
		r:   rng.New(cfg.SeedOrDefault()),
	}, nil
}

// NewFrom returns a warm-start engine seeded with a frozen model's centroid
// state: means (flat k×m), adds (k additive variance terms, +Inf marking
// memberless clusters), and weights (k effective training cardinalities).
// Clusters with positive weight and a finite additive term are folded into
// the statistics as if their members had been observed (W = weight,
// Ψ = add·weight²). Memberless clusters keep their frozen state — a
// pre-Observe Snapshot reproduces the model bit for bit — and are revived
// by the first processed batch: the reseed rule parks them on the batch's
// worst-served object, giving them a finite additive term so the stream
// can feed them.
func NewFrom(k, m int, means, adds, weights []float64, cfg clustering.StreamConfig) (*Engine, error) {
	e, err := New(k, cfg)
	if err != nil {
		return nil, err
	}
	if m < 1 {
		return nil, fmt.Errorf("stream: warm start with dim %d", m)
	}
	if len(means) != k*m || len(adds) != k || len(weights) != k {
		return nil, fmt.Errorf("stream: warm start state sized %d/%d/%d for k=%d m=%d",
			len(means), len(adds), len(weights), k, m)
	}
	e.bind(m)
	copy(e.means, means)
	copy(e.adds, adds)
	for c := 0; c < k; c++ {
		w := weights[c]
		if w > 0 && !math.IsInf(adds[c], 1) {
			e.ws.SeedCluster(c, means[c*m:(c+1)*m], w, adds[c]*w*w)
			e.hasMembers = true
		}
	}
	e.seeded = true
	return e, nil
}

// bind allocates the dimension-dependent state once m is known.
func (e *Engine) bind(m int) {
	e.m = m
	e.store = uncertain.NewMoments(m)
	e.means = make([]float64, e.k*m)
	e.adds = make([]float64, e.k)
	e.ws = core.NewWStats(e.k, m)
	e.asg = core.NewAssigner(e.store, e.k, false)
}

// Observe ingests a batch of uncertain objects: the input is split into
// mini-batches of StreamConfig.BatchSize, and each is scored against the
// current centroids and folded into the decayed statistics. Observe copies
// what it needs (moment rows) into the resident window — the caller may
// reuse or drop the objects afterwards.
//
// Observe calls serialize: concurrent callers are safe but block one
// another. ctx is checked between mini-batches. In steady state (after the
// resident window's capacity has warmed up to the largest batch seen)
// Observe performs no heap allocations when Workers is 1.
func (e *Engine) Observe(ctx context.Context, objs uncertain.Dataset) error {
	ctx = clustering.Ctx(ctx)
	if len(objs) == 0 {
		return nil
	}
	if err := objs.Validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.m == 0 {
		e.bind(objs.Dims())
	} else if objs.Dims() != e.m {
		return fmt.Errorf("stream: object dim %d vs stream dim %d: %w",
			objs.Dims(), e.m, uncertain.ErrDimMismatch)
	}
	for lo := 0; lo < len(objs); lo += e.bs {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := lo + e.bs
		if hi > len(objs) {
			hi = len(objs)
		}
		if err := e.ingest(objs[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// ingest buffers or processes one mini-batch chunk under the engine lock.
func (e *Engine) ingest(chunk uncertain.Dataset) error {
	if e.cfg.MaxBatches > 0 && e.batches >= e.cfg.MaxBatches {
		return fmt.Errorf("stream: %d mini-batches ingested: %w", e.batches, clustering.ErrStreamBudget)
	}
	if !e.seeded {
		// Cold start: buffer rows until a full seeding window (one
		// BatchSize, and at least k) is resident, then seed and process
		// the whole buffered window as the first batch. Callers feeding
		// small portions — even one object at a time — therefore seed
		// from the same window a single big Observe would have used; a
		// stream shorter than one window is seeded on demand by Snapshot.
		for _, o := range chunk {
			e.store.Append(o)
		}
		e.seedObjs = append(e.seedObjs, chunk...)
		if e.store.Len() < e.k || e.store.Len() < e.bs {
			return nil
		}
		e.seedResident()
		return nil
	}
	e.base += int64(e.store.Len())
	e.store.Reset()
	for _, o := range chunk {
		e.store.Append(o)
	}
	e.step()
	return nil
}

// seedResident initializes the centroids from the seeding window with a
// best-of-two restart: the window is refined to a Lloyd fixed point from
// (a) a uniform random partition (the paper's Algorithm-1 default — all
// centroids start near the window mean and split along the data's
// density, which wins on heavily skewed streams) and (b) k-means++ point
// seeding on ÊD (spread-out seeds, which wins on well-separated
// small-k data), and the state scoring higher on the paper's internal
// validity criterion Q = inter − intra (eval.Quality, §5.1) over the
// window is kept. Q — not the objective Σ_C J(C) — is the selector
// because J always prefers the finest carve of the dominant mass (on a
// heavily skewed stream, splitting one dominant blob k ways has lower J
// than resolving the actual group structure), while Q also rewards
// separation; the two refined candidates are fixed points of the same
// objective, so the selection only breaks the init-dependence tie. A
// single-visit stream can never undo a bad start, making the extra
// handful of passes over one window the cheapest insurance available.
// Runs once per cold-start engine, so its scratch may allocate.
func (e *Engine) seedResident() {
	n, m := e.store.Len(), e.m
	e.seeded = true

	// Attempt (a): random partition.
	assign := clustering.RandomPartition(n, e.k, e.r)
	e.ws.Zero()
	e.ws.AddAssigned(e.store, assign)
	e.ws.CentersInto(e.means, e.adds)
	e.refineSeed()
	// Both candidates are scored over the same window, so Q's O(n²)
	// normalizer is computed once.
	norm := eval.QualityNorm(e.seedObjs)
	qRand := eval.QualityWithNorm(e.seedObjs, clustering.Partition{K: e.k, Assign: e.assign[:n]}, norm)
	bestWS := core.NewWStats(e.k, m)
	bestWS.CopyFrom(e.ws)
	bestMeans := append([]float64(nil), e.means...)
	bestAdds := append([]float64(nil), e.adds...)

	// Attempt (b): k-means++ on ÊD — a singleton cluster's U-centroid is
	// the object itself, so mean = µ(o) and add = σ²(o).
	for c, i := range e.kmppRows() {
		copy(e.means[c*m:(c+1)*m], e.store.Mu(i))
		e.adds[c] = e.store.TotalVar(i)
	}
	e.refineSeed()
	if qRand >= eval.QualityWithNorm(e.seedObjs, clustering.Partition{K: e.k, Assign: e.assign[:n]}, norm) {
		e.ws.CopyFrom(bestWS)
		copy(e.means, bestMeans)
		copy(e.adds, bestAdds)
	}
	e.seedObjs = nil

	e.hasMembers = true
	e.seen += int64(n)
	e.batches++
	if b := e.store.Bytes(); b > e.maxBytes {
		e.maxBytes = b
	}
}

// kmppRows picks k seeding rows from the resident window with the
// k-means++ D² weighting on ÊD (mirroring clustering.KMeansPPCenters on
// the flat store).
func (e *Engine) kmppRows() []int {
	mom, n := e.store, e.store.Len()
	rows := make([]int, 0, e.k)
	first := e.r.Intn(n)
	rows = append(rows, first)
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = mom.EED(i, first)
	}
	for len(rows) < e.k {
		var total float64
		for _, d := range d2 {
			total += d
		}
		var next int
		if total <= 0 {
			next = e.r.Intn(n)
		} else {
			target := e.r.Float64() * total
			acc := 0.0
			next = n - 1
			for i, d := range d2 {
				acc += d
				if acc >= target {
					next = i
					break
				}
			}
		}
		rows = append(rows, next)
		for i := range d2 {
			if d := mom.EED(i, next); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return rows
}

// refineMaxIter caps the seed-refinement Lloyd iterations. The window is
// one mini-batch, so even the cap costs about as much as a handful of
// ordinary batches; in practice the fixed point arrives much earlier.
const refineMaxIter = 25

// refineSeed iterates the assignment/update cycle over the seeding window
// to a fixed point (capped at refineMaxIter) — UCPC-Lloyd on the window,
// starting from the centroid state currently installed in means/adds. A
// single-visit mini-batch stream never revisits an object, so centroid
// quality is bounded by how good the centroids already are when an object
// flies by; refining the first window to convergence is the cheap step
// that closes most of the gap to a full batch fit on stationary streams.
// Runs only during seeding, so its scratch may allocate.
func (e *Engine) refineSeed() {
	n := e.store.Len()
	if cap(e.assign) < n {
		e.assign = append(e.assign[:cap(e.assign)], make([]int, n-cap(e.assign))...)
	}
	assign := e.assign[:n]
	prev := make([]int, n)
	stable := false
	for t := 0; t < refineMaxIter; t++ {
		e.asg.SetCenters(e.means, e.adds)
		for i := range assign {
			assign[i] = -1
		}
		e.asg.Assign(assign, e.cfg.Workers)
		if stable && t > 0 {
			same := true
			for i := range assign {
				if assign[i] != prev[i] {
					same = false
					break
				}
			}
			if same {
				// means/adds already reflect this assignment (they were
				// computed from the identical previous one).
				break
			}
		}
		copy(prev, assign)
		e.ws.Zero()
		e.ws.AddAssigned(e.store, assign)
		e.ws.CentersInto(e.means, e.adds)
		// Clusters that won nothing are repositioned onto the window's
		// worst-served objects (the batch Lloyd empty-cluster rule). A
		// streaming fit has no later chance to revive a dead cluster, and
		// with heavily skewed streams several k-means++ seeds routinely
		// end up shadowed — without this, effective k shrinks for the
		// whole run.
		stable = e.reseedStarved(assign) == 0
	}
}

// reseedStarved repositions every zero-weight cluster onto the resident
// row farthest from its own assigned centroid (position-only: the row's
// statistics stay with its current cluster until the next assignment pass
// captures them). Rows are claimed through assign so two starved clusters
// never land on the same object. Returns the number of reseeds.
func (e *Engine) reseedStarved(assign []int) int {
	n, m := e.store.Len(), e.m
	count := 0
	for c := 0; c < e.k; c++ {
		if e.ws.Weight(c) > 0 {
			continue
		}
		far, farD := -1, -1.0
		for i := 0; i < n; i++ {
			co := assign[i]
			// Donors need at least two members so a reseed cannot starve
			// another cluster (and a just-claimed row has weight 0 < 2).
			if co < 0 || e.ws.Weight(co) < 2 {
				continue
			}
			mu := e.store.Mu(i)
			row := e.means[co*m : (co+1)*m]
			var d float64
			for j, v := range mu {
				diff := v - row[j]
				d += diff * diff
			}
			if d > farD {
				far, farD = i, d
			}
		}
		if far < 0 {
			continue
		}
		copy(e.means[c*m:(c+1)*m], e.store.Mu(far))
		e.adds[c] = e.store.TotalVar(far)
		assign[far] = c
		count++
	}
	return count
}

// step processes the resident window as one mini-batch: score against the
// pre-update centroids, fold into the decayed statistics, refresh the
// centroid read-out.
func (e *Engine) step() {
	n := e.store.Len()
	if n == 0 {
		return
	}
	e.asg.SetCenters(e.means, e.adds)
	if cap(e.assign) < n {
		e.assign = append(e.assign[:cap(e.assign)], make([]int, n-cap(e.assign))...)
	}
	assign := e.assign[:n]
	for i := range assign {
		assign[i] = -1
	}
	e.asg.Assign(assign, e.cfg.Workers)

	if e.cfg.Decay > 0 {
		e.ws.Scale(1 - e.cfg.Decay)
	}
	e.ws.AddAssigned(e.store, assign)
	e.ws.CentersInto(e.means, e.adds)
	// Revive clusters that have never been fed (zero statistical weight —
	// e.g. a warm start from a model with memberless prototypes, whose
	// +Inf additive term would otherwise keep them dead forever): park
	// them on this batch's worst-served object so they can start winning
	// from the next batch. Position-only and allocation-free; clusters
	// with any weight, however decayed, are never touched.
	e.reseedStarved(assign)
	e.hasMembers = true
	e.seen += int64(n)
	e.batches++
	if b := e.store.Bytes(); b > e.maxBytes {
		e.maxBytes = b
	}
}

// Frozen is an independent snapshot of the engine's centroid state, ready
// to be wrapped into a serving model.
type Frozen struct {
	K, Dims       int
	Means         []float64 // k*dims, row-major (copy)
	Adds          []float64 // k additive variance terms (copy)
	Sizes         []int     // rounded effective weights
	Weights       []float64 // exact effective weights (copy)
	HasMembers    bool
	Seen          int64
	Batches       int
	Objective     float64 // weighted Theorem-3 objective estimate
	ResidentBytes int64   // high-water resident moment-store footprint
}

// Snapshot freezes the current centroid state. A cold stream that has
// buffered at least k objects (but less than a full seeding window) is
// seeded on demand, so short streams still snapshot; with fewer than k
// objects observed it fails with a wrapped ErrStreamCold. Warm-started
// streams snapshot immediately.
func (e *Engine) Snapshot() (*Frozen, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.seeded {
		if e.store == nil || e.store.Len() < e.k {
			return nil, fmt.Errorf("stream: %w", clustering.ErrStreamCold)
		}
		e.seedResident()
	}
	fz := &Frozen{
		K:             e.k,
		Dims:          e.m,
		Means:         append([]float64(nil), e.means...),
		Adds:          append([]float64(nil), e.adds...),
		Sizes:         make([]int, e.k),
		Weights:       make([]float64, e.k),
		HasMembers:    e.hasMembers,
		Seen:          e.seen,
		Batches:       e.batches,
		Objective:     e.ws.EstimateJ(),
		ResidentBytes: e.maxBytes,
	}
	e.ws.Sizes(fz.Sizes)
	for c := 0; c < e.k; c++ {
		fz.Weights[c] = e.ws.Weight(c)
	}
	return fz, nil
}

// Stats is an independent copy of an engine's mergeable state: the weighted
// sufficient statistics plus the authoritative frozen centroid read-out
// (means/adds keep the engine's exact bits, including the positions of
// zero-weight clusters that the statistics alone cannot reproduce). A Stats
// value is what a shard ships to its coordinator — WS serializes through
// core's versioned wire format when the shard lives in another process.
type Stats struct {
	WS         *core.WStats
	Means      []float64 // k*m, row-major (copy)
	Adds       []float64 // k additive variance terms (copy)
	HasMembers bool
	Seen       int64
	Batches    int
}

// ExportStats freezes the engine's mergeable state. Like Snapshot, a cold
// engine that has buffered at least k objects is seeded on demand; with
// fewer it fails with a wrapped ErrStreamCold (the coordinator treats such
// a shard as not ready and merges without it).
func (e *Engine) ExportStats() (*Stats, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.seeded {
		if e.store == nil || e.store.Len() < e.k {
			return nil, fmt.Errorf("stream: %w", clustering.ErrStreamCold)
		}
		e.seedResident()
	}
	ws := core.NewWStats(e.k, e.m)
	ws.CopyFrom(e.ws)
	return &Stats{
		WS:         ws,
		Means:      append([]float64(nil), e.means...),
		Adds:       append([]float64(nil), e.adds...),
		HasMembers: e.hasMembers,
		Seen:       e.seen,
		Batches:    e.batches,
	}, nil
}

// SyncCenters replaces the engine's authoritative centroid read-out — the
// positions and additive terms the next mini-batch is scored against —
// leaving the accumulated statistics untouched. The shard coordinator
// broadcasts globally merged centroids between ingest rounds with it:
// per-shard statistics keep accounting for exactly the shard's own
// objects, while assignments follow the global structure. The shard's next
// processed batch refreshes the read-out from its own statistics again
// (CentersInto skips zero-weight clusters, so a synced position survives
// on clusters the shard has never fed).
func (e *Engine) SyncCenters(means, adds []float64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.seeded || e.m == 0 {
		return fmt.Errorf("stream: %w", clustering.ErrStreamCold)
	}
	if len(means) != e.k*e.m || len(adds) != e.k {
		return fmt.Errorf("stream: sync state sized %d/%d for k=%d m=%d",
			len(means), len(adds), e.k, e.m)
	}
	copy(e.means, means)
	copy(e.adds, adds)
	return nil
}

// Seen returns the number of objects folded into the statistics so far.
func (e *Engine) Seen() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seen
}

// Batches returns the number of mini-batches processed so far.
func (e *Engine) Batches() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.batches
}

// Base returns the global index of the first resident row: rows keep
// stable global identities base+i across the stream even though the
// resident window is recycled.
func (e *Engine) Base() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.base
}

// ResidentBytes returns the high-water footprint of the resident moment
// store — the scale experiment's peak-RSS proxy for the streaming path.
func (e *Engine) ResidentBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store == nil {
		return 0
	}
	b := e.store.Bytes()
	if e.maxBytes > b {
		b = e.maxBytes
	}
	return b
}
