package ucpc

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ucpc/internal/clustering"
	"ucpc/internal/stream"
)

// StreamConfig configures the mini-batch streaming engine: BatchSize,
// Decay (per-batch exponential forgetting), MaxBatches, plus the shared
// Workers/Seed knobs. Aliased from the internal registry layer so
// one value means the same thing everywhere.
type StreamConfig = clustering.StreamConfig

// The typed streaming errors; test with errors.Is.
var (
	// ErrStreamBudget marks an Observe rejected because the
	// StreamConfig.MaxBatches budget is exhausted.
	ErrStreamBudget = clustering.ErrStreamBudget
	// ErrStreamCold marks a Snapshot taken before the stream has observed
	// enough objects (k, cold start) to seed its centroids.
	ErrStreamCold = clustering.ErrStreamCold
)

// StreamClusterer is the out-of-core counterpart of Clusterer: a mini-batch
// UCPC session for datasets that do not fit in one in-memory pass, and for
// models that must refresh as new uncertain objects arrive.
//
// Begin opens a StreamFit; Observe feeds it uncertain objects in arbitrary
// portions (internally re-chunked to Config.BatchSize mini-batches, each
// scored against the current centroids by a full nearest-centroid scan
// and folded into decayed per-cluster sufficient statistics — the
// classic mini-batch k-means decaying learning rate, generalized to the
// paper's U-centroid statistics); Snapshot freezes the current centroids as
// a regular Model at any time, without stopping the stream.
//
// The resident memory of a StreamFit is O(BatchSize·dims) regardless of how
// many objects stream through: moment rows live in one recycled window, and
// only the k per-cluster statistics persist.
type StreamClusterer struct {
	// Config is the streaming run configuration.
	Config StreamConfig
}

// Begin opens a streaming fit for k clusters. The dimensionality is fixed
// by the first observed object; the centroids are seeded from the first
// BatchSize-or-so observed objects — a random partition refined to a Lloyd
// fixed point on that window, the same initialization character as the
// batch fits — and every later batch then nudges them. k < 1 returns a
// wrapped ErrBadK; a Decay outside [0, 1) is rejected. ctx is reserved for
// symmetry with Fit (Begin itself does not block).
func (s *StreamClusterer) Begin(ctx context.Context, k int) (*StreamFit, error) {
	_ = clustering.Ctx(ctx)
	eng, err := stream.New(k, s.Config)
	if err != nil {
		return nil, fmt.Errorf("ucpc: %w", err)
	}
	return &StreamFit{eng: eng, cfg: s.Config}, nil
}

// BeginFrom opens a streaming fit warm-started from a fitted model's frozen
// centroid state — the serving-refresh path: keep assigning with the old
// model while a stream fit tracks new data, then swap in a Snapshot.
//
// The model's per-cluster prototypes seed both the centroid positions and
// the statistical mass (weight = training cardinality), so early batches
// nudge rather than overwrite the learned structure. A Snapshot taken
// before any Observe reproduces the seed model's centroids bit for bit.
// Only models with U-centroid or centroid-point prototypes (the UCPC
// family, UAHC, FDB, FOPT, UK-means family) can seed a stream; mixture and
// medoid models return a wrapped ErrWarmStartUnsupported.
func (s *StreamClusterer) BeginFrom(ctx context.Context, model *Model) (*StreamFit, error) {
	_ = clustering.Ctx(ctx)
	if model == nil {
		return nil, errors.New("ucpc: BeginFrom with nil model")
	}
	if model.proto != clustering.ProtoUCentroid && model.proto != clustering.ProtoMean {
		return nil, fmt.Errorf("ucpc: stream warm start from %s (prototype kind %d): %w",
			model.algorithm, model.proto, ErrWarmStartUnsupported)
	}
	if !model.hasMembers {
		return nil, fmt.Errorf("ucpc: stream warm start from a model with no training members: %w",
			ErrWarmStartUnsupported)
	}
	weights := make([]float64, model.k)
	for c, s := range model.sizes {
		weights[c] = float64(s)
	}
	eng, err := stream.NewFrom(model.k, model.dims, model.means, model.adds, weights, s.Config)
	if err != nil {
		return nil, fmt.Errorf("ucpc: %w", err)
	}
	return &StreamFit{eng: eng, cfg: s.Config}, nil
}

// StreamFit is one in-progress mini-batch fit. It is safe for concurrent
// use: Observe calls serialize behind the engine lock (callers block one
// another, never corrupt state), and Snapshot can be taken from other
// goroutines at any time — it returns an independent frozen Model and never
// blocks the stream for longer than one centroid copy.
type StreamFit struct {
	eng *stream.Engine
	cfg StreamConfig
}

// Observe ingests uncertain objects into the stream: the input is split
// into mini-batches of Config.BatchSize, each scored against the current
// centroids and folded into the decayed per-cluster statistics. Moment rows
// are copied into the fit's resident window, so the caller may reuse or
// drop the objects afterwards.
//
// Objects must match the stream's dimensionality (wrapped ErrDimMismatch
// otherwise); once Config.MaxBatches mini-batches have been ingested,
// further input is rejected with a wrapped ErrStreamBudget. ctx is checked
// between mini-batches. In steady state — after the resident window has
// warmed up to the largest batch seen — Observe performs no heap
// allocations when Config.Workers is 1.
func (f *StreamFit) Observe(ctx context.Context, objs Dataset) error {
	return f.eng.Observe(ctx, objs)
}

// Snapshot freezes the stream's current centroids as a Model, without
// stopping the stream: the model's prototypes are the weighted U-centroids
// of everything observed so far (mean = S_c/W_c, Var = Ψ_c/W_c², the
// weighted Theorem-2 closed form), served through the same
// Model.Assign path as a batch fit. The model declares "UCPC-Lloyd" — the
// batch counterpart of the mini-batch update — as its algorithm, so
// Clusterer.FitFrom can warm-start a full batch refit from a snapshot.
//
// A cold-start stream must have observed at least k objects first (wrapped
// ErrStreamCold otherwise); a warm-started stream can snapshot immediately,
// reproducing its seed model's centroids exactly.
func (f *StreamFit) Snapshot() (*Model, error) {
	fz, err := f.eng.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("ucpc: %w", err)
	}
	return modelFromFrozen(fz, f.cfg), nil
}

// modelFromFrozen wraps an engine's frozen centroid state as a serving
// Model — the shared tail of StreamFit.Snapshot and ShardedFit.Snapshot.
// The model declares "UCPC-Lloyd" (the batch counterpart of the mini-batch
// update), so Clusterer.FitFrom can warm-start a batch refit from it.
func modelFromFrozen(fz *stream.Frozen, cfg StreamConfig) *Model {
	hasMembers := false
	if fz.HasMembers {
		for c := 0; c < fz.K; c++ {
			if !math.IsInf(fz.Adds[c], 1) {
				hasMembers = true
				break
			}
		}
	}
	return &Model{
		algorithm: "UCPC-Lloyd",
		proto:     clustering.ProtoUCentroid,
		cfg:       Config{Workers: cfg.Workers, Seed: cfg.Seed},
		k:         fz.K,
		dims:      fz.Dims,
		report: &clustering.Report{
			Partition:  clustering.Partition{K: fz.K, Assign: []int{}},
			Objective:  fz.Objective,
			Iterations: fz.Batches,
		},
		means:      fz.Means,
		adds:       fz.Adds,
		sizes:      fz.Sizes,
		hasMembers: hasMembers,
	}
}

// ExportStats serializes the fit's current weighted sufficient statistics
// (W_c, S_c, Ψ_c, Φ_c per cluster) in the versioned WStats wire format —
// the payload an out-of-process worker ships to a coordinator's
// ShardedFit.AddRemoteStats. A cold stream (fewer than k objects observed)
// fails with a wrapped ErrStreamCold.
func (f *StreamFit) ExportStats() ([]byte, error) {
	st, err := f.eng.ExportStats()
	if err != nil {
		return nil, fmt.Errorf("ucpc: %w", err)
	}
	return st.WS.MarshalBinary()
}

// Seen returns the number of objects folded into the stream so far.
func (f *StreamFit) Seen() int64 { return f.eng.Seen() }

// Batches returns the number of mini-batches processed so far.
func (f *StreamFit) Batches() int { return f.eng.Batches() }

// ResidentBytes returns the high-water footprint of the fit's resident
// moment window — the quantity that stays O(BatchSize·dims) as the stream
// grows.
func (f *StreamFit) ResidentBytes() int64 { return f.eng.ResidentBytes() }
