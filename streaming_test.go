package ucpc_test

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"ucpc"
	"ucpc/internal/eval"
)

// streamBlobs builds n uncertain objects in 4 well-separated groups.
func streamBlobs(n int, seed uint64) ucpc.Dataset {
	r := ucpc.NewRNG(seed)
	ds := make(ucpc.Dataset, 0, n)
	for i := 0; i < n; i++ {
		g := i % 4
		c := []float64{12 * float64(g%2), 12 * float64(g/2)}
		c[0] += r.Normal(0, 0.8)
		c[1] += r.Normal(0, 0.8)
		o := ucpc.NewNormalObject(i, c, []float64{0.4, 0.4}, 0.95)
		o.Label = g
		ds = append(ds, o)
	}
	return ds
}

// TestStreamSnapshotAssignEquivalence is the snapshot-compatibility
// contract: a Snapshot is a regular Model, and scoring objects through it
// is byte-identical to scoring them through a batch-fit model with
// identical centroids. The warm-start path makes the centroids identical
// by construction (BeginFrom seeds the stream with the batch model's
// frozen state, and a pre-Observe Snapshot reproduces it bit for bit), so
// any divergence would be a defect in the snapshot plumbing or the shared
// assignment path.
func TestStreamSnapshotAssignEquivalence(t *testing.T) {
	ctx := context.Background()
	ds := streamBlobs(600, 11)
	batch, err := (&ucpc.Clusterer{Algorithm: "UCPC-Lloyd", Config: ucpc.Config{Seed: 7}}).Fit(ctx, ds, 4)
	if err != nil {
		t.Fatal(err)
	}

	sf, err := (&ucpc.StreamClusterer{Config: ucpc.StreamConfig{Seed: 7}}).BeginFrom(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sf.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Centroids byte-identical to the batch model's.
	bc, sc := batch.Centroids(), snap.Centroids()
	if len(bc) != len(sc) {
		t.Fatalf("centroid count %d vs %d", len(sc), len(bc))
	}
	for c := range bc {
		if bc[c].Var != sc[c].Var || bc[c].Size != sc[c].Size {
			t.Fatalf("cluster %d: Var/Size (%v, %d) vs (%v, %d)",
				c, sc[c].Var, sc[c].Size, bc[c].Var, bc[c].Size)
		}
		for j := range bc[c].Mean {
			if bc[c].Mean[j] != sc[c].Mean[j] {
				t.Fatalf("cluster %d dim %d: mean %v vs %v", c, j, sc[c].Mean[j], bc[c].Mean[j])
			}
		}
	}

	// Assign byte-identical on fresh objects.
	fresh := streamBlobs(900, 42)
	a1, err := batch.Assign(ctx, fresh)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := snap.Assign(ctx, fresh)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("object %d: snapshot assigns %d, batch model assigns %d", i, a2[i], a1[i])
		}
	}

	// First-principles cross-check: the snapshot's assignment is the exact
	// lowest-index argmin of ‖µ(o) − mean_c‖² + Var_c.
	for i, o := range fresh {
		best, bestD := 0, math.Inf(1)
		for c := range sc {
			var d float64
			for j, v := range o.Mean() {
				diff := v - sc[c].Mean[j]
				d += diff * diff
			}
			if d += sc[c].Var; d < bestD {
				best, bestD = c, d
			}
		}
		if a2[i] != best {
			t.Fatalf("object %d: snapshot assigns %d, first-principles argmin %d", i, a2[i], best)
		}
	}
}

// TestStreamColdFitQuality: a cold mini-batch fit on a separated stream
// recovers the reference grouping and stays within a few percent of the
// batch UCPC-Lloyd fit's internal quality.
func TestStreamColdFitQuality(t *testing.T) {
	ctx := context.Background()
	ds := streamBlobs(4000, 23)

	sc := &ucpc.StreamClusterer{Config: ucpc.StreamConfig{BatchSize: 256, Seed: 5}}
	sf, err := sc.Begin(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Feed in uneven portions to exercise the re-chunking.
	for lo := 0; lo < len(ds); lo += 700 {
		hi := lo + 700
		if hi > len(ds) {
			hi = len(ds)
		}
		if err := sf.Observe(ctx, ds[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := sf.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	assign, err := snap.Assign(ctx, ds)
	if err != nil {
		t.Fatal(err)
	}
	p := ucpc.Partition{K: 4, Assign: assign}
	if ari := eval.AdjustedRandIndex(p, ds.Labels()); ari < 0.97 {
		t.Fatalf("stream fit ARI %v vs reference labels", ari)
	}

	batch, err := (&ucpc.Clusterer{Algorithm: "UCPC-Lloyd", Config: ucpc.Config{Seed: 5}}).Fit(ctx, ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Within 5% means "no worse than 5% below the batch fit": a stream fit
	// that lands in a better local optimum than the batch run is fine.
	sq := ucpc.Quality(ds, p)
	bq := ucpc.Quality(ds, batch.Partition())
	if sq < bq-0.05*math.Abs(bq) {
		t.Fatalf("stream quality %v vs batch quality %v: more than 5%% worse", sq, bq)
	}

	// The snapshot declares the batch counterpart, so FitFrom can take a
	// stream model into a full batch refinement.
	refit, err := (&ucpc.Clusterer{Config: ucpc.Config{Seed: 5}}).FitFrom(ctx, snap, ds)
	if err != nil {
		t.Fatal(err)
	}
	if refit.Algorithm() != "UCPC-Lloyd" || refit.K() != 4 {
		t.Fatalf("refit algorithm %q k %d", refit.Algorithm(), refit.K())
	}
}

// TestStreamErrors: the typed streaming failures surface through errors.Is.
func TestStreamErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := (&ucpc.StreamClusterer{}).Begin(ctx, 0); !errors.Is(err, ucpc.ErrBadK) {
		t.Fatalf("k=0: %v", err)
	}
	sf, err := (&ucpc.StreamClusterer{Config: ucpc.StreamConfig{BatchSize: 16, MaxBatches: 1}}).Begin(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sf.Snapshot(); !errors.Is(err, ucpc.ErrStreamCold) {
		t.Fatalf("cold snapshot: %v", err)
	}
	ds := streamBlobs(64, 3)
	if err := sf.Observe(ctx, ds[:16]); err != nil {
		t.Fatal(err)
	}
	if err := sf.Observe(ctx, ds[16:32]); !errors.Is(err, ucpc.ErrStreamBudget) {
		t.Fatalf("budget: %v", err)
	}
	if err := sf.Observe(ctx, ucpc.Dataset{}); err != nil {
		t.Fatalf("empty observe: %v", err)
	}

	// Medoid models cannot seed a stream.
	med, err := (&ucpc.Clusterer{Algorithm: "UKmed", Config: ucpc.Config{Seed: 3}}).Fit(ctx, ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&ucpc.StreamClusterer{}).BeginFrom(ctx, med); !errors.Is(err, ucpc.ErrWarmStartUnsupported) {
		t.Fatalf("medoid warm start: %v", err)
	}
}

// TestStreamConcurrentObserveSnapshot drives Observe from several
// goroutines while others take Snapshots and serve Assign calls — the
// serving-refresh pattern. Run under -race in CI.
func TestStreamConcurrentObserveSnapshot(t *testing.T) {
	ctx := context.Background()
	sf, err := (&ucpc.StreamClusterer{Config: ucpc.StreamConfig{BatchSize: 64, Seed: 9}}).Begin(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Observe(ctx, streamBlobs(256, 1)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < 8; b++ {
				if err := sf.Observe(ctx, streamBlobs(128, uint64(w*100+b+2))); err != nil {
					t.Errorf("observe: %v", err)
					return
				}
			}
		}(w)
	}
	probe := streamBlobs(64, 77)
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				snap, err := sf.Snapshot()
				if err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
				if _, err := snap.Assign(ctx, probe); err != nil {
					t.Errorf("assign: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if want := int64(256 + 4*8*128); sf.Seen() != want {
		t.Fatalf("seen %d, want %d", sf.Seen(), want)
	}
}

// TestStreamObserveSteadyStateAllocs gates the hot path: once the resident
// window has warmed up, an Observe of one steady-size batch performs no
// heap allocations (Workers = 1; the pool spawn itself allocates).
func TestStreamObserveSteadyStateAllocs(t *testing.T) {
	ctx := context.Background()
	sf, err := (&ucpc.StreamClusterer{Config: ucpc.StreamConfig{
		BatchSize: 256, Workers: 1, Seed: 4,
	}}).Begin(ctx, 4)
	if err != nil {
		t.Fatal(err)
	}
	batch := streamBlobs(256, 8)
	for i := 0; i < 4; i++ { // warm-up: seed + capacity growth
		if err := sf.Observe(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := sf.Observe(ctx, batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Observe allocates %v times per batch", allocs)
	}
}
