package stream

import (
	"context"
	"errors"
	"math"
	"testing"

	"ucpc/internal/clustering"
	"ucpc/internal/dist"
	"ucpc/internal/rng"
	"ucpc/internal/uncertain"
)

// blobs returns n uncertain objects in g well-separated Gaussian groups.
func blobs(n, g int, seed uint64) uncertain.Dataset {
	r := rng.New(seed)
	ds := make(uncertain.Dataset, n)
	for i := range ds {
		c := i % g
		ms := []dist.Distribution{
			dist.NewTruncNormalCentral(10*float64(c%2)+r.Normal(0, 0.6), 0.3, 0.95),
			dist.NewTruncNormalCentral(10*float64(c/2)+r.Normal(0, 0.6), 0.3, 0.95),
			dist.NewUniformAround(float64(c)+r.Normal(0, 0.3), 0.5),
		}
		ds[i] = uncertain.NewObject(i, ms).WithLabel(c)
	}
	return ds
}

func TestEngineValidation(t *testing.T) {
	if _, err := New(0, clustering.StreamConfig{}); !errors.Is(err, clustering.ErrBadK) {
		t.Fatalf("k=0: err %v, want ErrBadK", err)
	}
	if _, err := New(2, clustering.StreamConfig{Decay: 1.0}); err == nil {
		t.Fatal("decay 1.0 accepted")
	}
	if _, err := New(2, clustering.StreamConfig{Decay: -0.1}); err == nil {
		t.Fatal("negative decay accepted")
	}
	if _, err := New(2, clustering.StreamConfig{MaxBatches: -1}); err == nil {
		t.Fatal("negative MaxBatches accepted")
	}
	if _, err := NewFrom(2, 0, nil, nil, nil, clustering.StreamConfig{}); err == nil {
		t.Fatal("warm start with dim 0 accepted")
	}
	if _, err := NewFrom(2, 3, make([]float64, 5), make([]float64, 2), make([]float64, 2),
		clustering.StreamConfig{}); err == nil {
		t.Fatal("warm start with mis-sized means accepted")
	}
}

func TestEngineColdStartAndBudget(t *testing.T) {
	ctx := context.Background()
	e, err := New(4, clustering.StreamConfig{BatchSize: 32, MaxBatches: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(); !errors.Is(err, clustering.ErrStreamCold) {
		t.Fatalf("cold snapshot: err %v, want ErrStreamCold", err)
	}
	ds := blobs(200, 4, 1)

	// Fewer than k objects: still cold.
	if err := e.Observe(ctx, ds[:2]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(); !errors.Is(err, clustering.ErrStreamCold) {
		t.Fatalf("2 < k objects: err %v, want ErrStreamCold", err)
	}
	if e.Batches() != 0 || e.Seen() != 0 {
		t.Fatalf("buffered objects counted: batches %d seen %d", e.Batches(), e.Seen())
	}

	// Crossing k seeds and processes the buffered window as batch 1.
	if err := e.Observe(ctx, ds[2:40]); err != nil {
		t.Fatal(err)
	}
	if e.Batches() != 2 || e.Seen() != 40 {
		// 2+32 rows in batch 1 (buffer + first full chunk)... the input
		// splits as [2 buffered + 32] then [6]: 2 batches, 40 objects.
		t.Fatalf("after 40 objects: batches %d seen %d", e.Batches(), e.Seen())
	}
	fz, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if fz.K != 4 || fz.Dims != 3 || fz.Seen != 40 {
		t.Fatalf("snapshot %+v", fz)
	}

	// MaxBatches = 3: one more batch fits, then the budget trips.
	if err := e.Observe(ctx, ds[40:72]); err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(ctx, ds[72:104]); !errors.Is(err, clustering.ErrStreamBudget) {
		t.Fatalf("beyond budget: err %v, want ErrStreamBudget", err)
	}
	if e.Batches() != 3 {
		t.Fatalf("budget overshoot: %d batches", e.Batches())
	}
}

func TestEngineDimMismatch(t *testing.T) {
	ctx := context.Background()
	e, _ := New(2, clustering.StreamConfig{})
	if err := e.Observe(ctx, blobs(10, 2, 1)); err != nil {
		t.Fatal(err)
	}
	bad := uncertain.Dataset{uncertain.FromPoint(0, []float64{1, 2})}
	if err := e.Observe(ctx, bad); !errors.Is(err, uncertain.ErrDimMismatch) {
		t.Fatalf("dim mismatch: err %v", err)
	}
}

// TestEngineWorkerInvariance: the per-batch assignment fan-out covers only
// order-independent work, so the fitted centroids are bit-identical for
// every worker count.
func TestEngineWorkerInvariance(t *testing.T) {
	ctx := context.Background()
	ds := blobs(1000, 4, 13)
	var base *Frozen
	for _, w := range []int{1, 2, 5, 0} {
		e, err := New(4, clustering.StreamConfig{BatchSize: 200, Workers: w, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Observe(ctx, ds); err != nil {
			t.Fatal(err)
		}
		fz, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = fz
			continue
		}
		for i := range base.Means {
			if base.Means[i] != fz.Means[i] {
				t.Fatalf("workers=%d: mean %d differs", w, i)
			}
		}
	}
}

// TestEngineResidentWindowBounded: streaming n objects must not grow the
// resident store beyond one batch window — the out-of-core contract.
func TestEngineResidentWindowBounded(t *testing.T) {
	ctx := context.Background()
	e, _ := New(4, clustering.StreamConfig{BatchSize: 100})
	ds := blobs(3000, 4, 21)
	var afterFirst int64
	for lo := 0; lo < len(ds); lo += 100 {
		if err := e.Observe(ctx, ds[lo:lo+100]); err != nil {
			t.Fatal(err)
		}
		if lo == 0 {
			afterFirst = e.ResidentBytes()
		}
	}
	if got := e.ResidentBytes(); got > afterFirst {
		t.Fatalf("resident store grew from %d to %d bytes over 30 batches", afterFirst, got)
	}
	if want := int64(3000 - 100); e.Base() != want {
		t.Fatalf("base %d, want %d (stable global row indices)", e.Base(), want)
	}
	if e.Seen() != 3000 || e.Batches() != 30 {
		t.Fatalf("seen %d batches %d", e.Seen(), e.Batches())
	}
}

// TestEngineDecayTracksDrift: with forgetting, centroids follow a stream
// whose groups move; without it they stay near the historical average.
func TestEngineDecayTracksDrift(t *testing.T) {
	ctx := context.Background()
	mk := func(center float64, n int, seed uint64) uncertain.Dataset {
		r := rng.New(seed)
		ds := make(uncertain.Dataset, n)
		for i := range ds {
			ms := []dist.Distribution{
				dist.NewTruncNormalCentral(center+r.Normal(0, 0.2), 0.2, 0.95),
			}
			ds[i] = uncertain.NewObject(i, ms)
		}
		return ds
	}
	fit := func(decay float64) float64 {
		e, err := New(1, clustering.StreamConfig{BatchSize: 50, Decay: decay})
		if err != nil {
			t.Fatal(err)
		}
		// 10 batches at 0, then 10 batches at 10: the group moved.
		for b := 0; b < 10; b++ {
			if err := e.Observe(ctx, mk(0, 50, uint64(b+1))); err != nil {
				t.Fatal(err)
			}
		}
		for b := 0; b < 10; b++ {
			if err := e.Observe(ctx, mk(10, 50, uint64(100+b))); err != nil {
				t.Fatal(err)
			}
		}
		fz, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return fz.Means[0]
	}
	noForget := fit(0)
	forget := fit(0.5)
	if math.Abs(noForget-5) > 1 {
		t.Fatalf("cumulative mean %v, want ≈ 5 (historical average)", noForget)
	}
	if forget < 9 {
		t.Fatalf("decayed mean %v, want ≈ 10 (tracking the drifted group)", forget)
	}
}

// TestEngineShortStreamSnapshotSeeds: a stream shorter than one seeding
// window (but with at least k objects) is seeded on demand by Snapshot.
func TestEngineShortStreamSnapshotSeeds(t *testing.T) {
	ctx := context.Background()
	e, _ := New(4, clustering.StreamConfig{BatchSize: 4096})
	ds := blobs(60, 4, 5)
	// Feed one object at a time: far below the window, never auto-seeds.
	for _, o := range ds {
		if err := e.Observe(ctx, uncertain.Dataset{o}); err != nil {
			t.Fatal(err)
		}
	}
	fz, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if fz.Seen != 60 || fz.Batches != 1 {
		t.Fatalf("snapshot-seeded stream: seen %d batches %d", fz.Seen, fz.Batches)
	}
	total := 0
	for _, s := range fz.Sizes {
		total += s
	}
	if total != 60 {
		t.Fatalf("window members %d, want 60", total)
	}
	if fz.Objective < 0 {
		t.Fatalf("objective %v negative", fz.Objective)
	}
}

// TestEngineWarmRevivesMemberlessCluster: a warm start from a model with a
// memberless (+Inf add) cluster must not keep that cluster dead — the
// first batches park it on a worst-served object, after which the stream
// can feed it.
func TestEngineWarmRevivesMemberlessCluster(t *testing.T) {
	ctx := context.Background()
	k, m := 2, 2
	// Cluster 0 lives at the origin; cluster 1 is memberless.
	means := []float64{0, 0, 100, 100}
	adds := []float64{0.5, math.Inf(1)}
	weights := []float64{50, 0}
	e, err := NewFrom(k, m, means, adds, weights, clustering.StreamConfig{BatchSize: 25})
	if err != nil {
		t.Fatal(err)
	}
	// Two well-separated groups, one far from the seeded cluster.
	r := rng.New(3)
	ds := make(uncertain.Dataset, 100)
	for i := range ds {
		c := 100 * float64(i%2)
		ds[i] = uncertain.NewObject(i, []dist.Distribution{
			dist.NewUniformAround(c+r.Normal(0, 0.5), 0.5),
			dist.NewUniformAround(c+r.Normal(0, 0.5), 0.5),
		})
	}
	if err := e.Observe(ctx, ds); err != nil {
		t.Fatal(err)
	}
	fz, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if fz.Weights[1] <= 0 {
		t.Fatalf("memberless cluster never revived: weights %v", fz.Weights)
	}
	if math.IsInf(fz.Adds[1], 1) {
		t.Fatalf("revived cluster still carries an infinite additive term")
	}
}

// TestEngineWarmSeedObjectiveSane: the objective estimate of a pure warm
// seed counts the seed's variance mass and is never wildly negative (a
// zero Φ seed used to report huge negative objectives).
func TestEngineWarmSeedObjectiveSane(t *testing.T) {
	k, m := 2, 2
	means := []float64{50, -30, 80, 90} // far from the origin on purpose
	adds := []float64{0.25, 0.5}
	weights := []float64{100, 40}
	e, err := NewFrom(k, m, means, adds, weights, clustering.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fz, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Seed J contribution per cluster is Ψ(1 + 1/W) with Ψ = add·W².
	want := adds[0]*100*100*(1+1.0/100) + adds[1]*40*40*(1+1.0/40)
	if rel := math.Abs(fz.Objective-want) / (want + 1); rel > 1e-9 {
		t.Fatalf("warm-seed objective %v, want %v", fz.Objective, want)
	}
}

// TestEngineWarmSeedExact: a warm-started engine snapshots its seed state
// bit for bit before any batch, and keeps memberless clusters inert.
func TestEngineWarmSeedExact(t *testing.T) {
	k, m := 3, 2
	means := []float64{0.1, 0.2, 7.7, -3.3, 5, 5}
	adds := []float64{0.25, 0.125, math.Inf(1)}
	weights := []float64{10, 3, 0}
	e, err := NewFrom(k, m, means, adds, weights, clustering.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fz, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := range means {
		if fz.Means[i] != means[i] {
			t.Fatalf("mean %d: %v != seed %v", i, fz.Means[i], means[i])
		}
	}
	for c := range adds {
		if fz.Adds[c] != adds[c] {
			t.Fatalf("add %d: %v != seed %v", c, fz.Adds[c], adds[c])
		}
	}
	if fz.Sizes[0] != 10 || fz.Sizes[1] != 3 || fz.Sizes[2] != 0 {
		t.Fatalf("sizes %v", fz.Sizes)
	}
	if !fz.HasMembers {
		t.Fatal("warm seed lost membership")
	}
}
