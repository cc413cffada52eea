package ucpc

import (
	"context"
	"fmt"
	"runtime"

	"ucpc/internal/clustering"
	"ucpc/internal/shard"
)

// Partitioner routes one observed object to a shard in [0, shards): seq is
// the object's global arrival sequence number (0-based), so the default
// round-robin rule is seq % shards. A partitioner must be deterministic in
// (o, seq) for reproducible fits; use a key-based rule (e.g. a hash of the
// object's id) when related objects should land on the same shard.
type Partitioner = shard.PartitionFunc

// ShardedClusterer is the shard-parallel counterpart of StreamClusterer: P
// independent mini-batch stream engines each consume a partition of the
// input, and Snapshot merges their weighted sufficient statistics —
// W_c, S_c, Ψ_c, Φ_c are additive, so per-shard sums combine by a
// deterministic tree reduction with greedy centroid matching reconciling
// each shard's cluster label order — into one global Model through the
// same weighted Theorem-2 read-out a single stream fit uses.
//
// Use it when one engine's ingest thread is the bottleneck: shards ingest
// concurrently, so throughput scales with cores (and, via
// ShardedFit.AddRemoteStats, across processes). For a single-threaded
// ingest path or strict arrival-order semantics, use StreamClusterer.
type ShardedClusterer struct {
	// Config is the per-shard streaming configuration. Shard i derives its
	// RNG stream from Config.Seed (shard 0 uses it verbatim, so a 1-shard
	// fit is bit-identical to a StreamClusterer fit).
	Config StreamConfig
	// Shards is the number of parallel engines P (0 = GOMAXPROCS; negative
	// is rejected by Begin). For P > 1 all shards are warm-started from one
	// shared seed-window fit and re-synchronized to the merged centroids
	// after every Observe; the fitted centroids still depend (mildly) on P
	// through batch composition, while remaining deterministic for fixed
	// (Config, Shards, Partitioner).
	Shards int
	// Partitioner routes objects to shards (nil = round-robin on the
	// arrival sequence).
	Partitioner Partitioner
}

// Begin opens a sharded streaming fit for k clusters, mirroring
// StreamClusterer.Begin: k < 1 returns a wrapped ErrBadK, an invalid
// Config a wrapped ErrBadConfig. ctx is reserved for symmetry with Fit
// (Begin itself does not block).
func (s *ShardedClusterer) Begin(ctx context.Context, k int) (*ShardedFit, error) {
	_ = clustering.Ctx(ctx)
	p := s.Shards
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	co, err := shard.New(k, p, s.Config, s.Partitioner)
	if err != nil {
		return nil, fmt.Errorf("ucpc: %w", err)
	}
	return &ShardedFit{co: co, cfg: s.Config}, nil
}

// ShardedFit is one in-progress shard-parallel fit. Observe calls serialize
// behind the coordinator lock (the per-shard ingest inside an Observe still
// runs concurrently); Snapshot can be taken from other goroutines at any
// time and never stops the stream.
type ShardedFit struct {
	co  *shard.Coordinator
	cfg StreamConfig
}

// Observe partitions objs across the shards and ingests every shard's
// portion concurrently, each through its own mini-batch engine (scored
// against that shard's current centroids, folded into its decayed
// statistics). Moment rows are copied; the caller may reuse or drop the
// objects afterwards.
//
// ctx is plumbed to each shard and checked between mini-batches; the first
// shard failure cancels the remaining shards' ingest for this call and is
// returned. Objects must match the fit's dimensionality (wrapped
// ErrDimMismatch otherwise); the per-shard MaxBatches budget applies shard
// by shard (wrapped ErrStreamBudget).
func (f *ShardedFit) Observe(ctx context.Context, objs Dataset) error {
	if err := f.co.Observe(ctx, objs); err != nil {
		return fmt.Errorf("ucpc: %w", err)
	}
	return nil
}

// AddRemoteStats folds an out-of-process shard's statistics into every
// subsequent Snapshot: payload is the versioned WStats wire format a remote
// shard produced (see the package documentation's wire-format section).
// Malformed payloads are rejected with wrapped ErrBadModelFormat /
// ErrModelVersion; a payload whose k differs from the fit's is rejected
// too. Remote statistics are merged as-shipped — they do not decay with
// later batches, so ship fresh payloads close to when you Snapshot.
func (f *ShardedFit) AddRemoteStats(payload []byte) error {
	if err := f.co.AddRemote(payload); err != nil {
		return fmt.Errorf("ucpc: %w", err)
	}
	return nil
}

// SetRemoteStats is the idempotent sibling of AddRemoteStats for periodic
// federation pushes: the payload is folded in under the stable source key,
// replacing whatever that source reported before, so an edge re-exporting
// its cumulative statistics every few seconds counts once — not once per
// push. Validation matches AddRemoteStats; an empty source key is rejected
// with wrapped ErrBadConfig.
func (f *ShardedFit) SetRemoteStats(source string, payload []byte) error {
	if err := f.co.SetRemote(source, payload); err != nil {
		return fmt.Errorf("ucpc: %w", err)
	}
	return nil
}

// Snapshot merges the ready shards' statistics — a deterministic pairwise
// tree reduction in shard order, with greedy centroid matching (globally
// closest pair first, ties to the lowest index) reconciling cluster
// correspondence before each pairwise add — and freezes the merged
// weighted U-centroids as a regular Model, served through the same
// Model.Assign path as any other fit.
//
// Shards that have not yet observed k objects are merged-around: Snapshot
// uses what is ready, and a later Snapshot re-merges from scratch to pick
// up stragglers (per-shard statistics are tiny, so re-merging is
// microseconds). If no shard is ready at all it fails with a wrapped
// ErrStreamCold.
func (f *ShardedFit) Snapshot() (*Model, error) {
	fz, err := f.co.Merge()
	if err != nil {
		return nil, fmt.Errorf("ucpc: %w", err)
	}
	return modelFromFrozen(fz, f.cfg), nil
}

// Shards returns the number of local shard engines.
func (f *ShardedFit) Shards() int { return f.co.Shards() }

// Seen returns the total number of objects folded into any shard so far.
func (f *ShardedFit) Seen() int64 { return f.co.Seen() }

// Batches returns the total number of mini-batches processed across shards.
func (f *ShardedFit) Batches() int { return f.co.Batches() }

// ResidentBytes returns the summed high-water footprint of the shards'
// resident moment windows — the quantity that stays O(P·BatchSize·dims) as
// the stream grows.
func (f *ShardedFit) ResidentBytes() int64 { return f.co.ResidentBytes() }
