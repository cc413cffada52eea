package core

import (
	"context"
	"time"

	"ucpc/internal/clustering"
	"ucpc/internal/rng"
	"ucpc/internal/uncertain"
)

// InitStrategy selects how UCPC builds its initial partition.
type InitStrategy int

const (
	// InitRandom uses a uniform random partition with non-empty clusters
	// (the paper's default suggestion in Algorithm 1, Line 2).
	InitRandom InitStrategy = iota
	// InitKMeansPP seeds k centers with D²-weighting on ÊD and assigns
	// each object to its nearest seed.
	InitKMeansPP
)

// ctxCheckStride is how many inner-loop objects a sequential sweep handles
// between context checks: frequent enough that cancellation lands mid-pass
// on large datasets, sparse enough that the check (an atomic load and a
// branch) is invisible next to the O(k·m) work per object.
const ctxCheckStride = 4096

// UCPC is the U-Centroid-based Partitional Clustering algorithm
// (paper Algorithm 1): a local-search heuristic that relocates one object
// at a time to the cluster yielding the largest decrease of
// Σ_C J(C), using the O(m) closed forms of Theorem 3 / Corollary 1.
type UCPC struct {
	// MaxIter caps the number of full passes over the dataset
	// (0 means the default of 100). The paper's algorithm iterates until
	// no object is relocated; the cap is a safety net only.
	MaxIter int
	// Init selects the initial-partition strategy (default InitRandom).
	Init InitStrategy
	// MinImprove is the minimum relative objective decrease for a
	// relocation to be applied; guards the convergence proof
	// (Proposition 4) against floating-point jitter. 0 means 1e-12.
	MinImprove float64
	// Workers parallelizes the order-independent phases (the k-means++
	// initial assignment); <= 0 means GOMAXPROCS. The relocation sweep
	// itself is sequential by definition (each move updates the statistics
	// the next decision reads), so the partition produced for a given seed
	// is identical for every Workers value.
	Workers int
	// Pruning toggles the exact bound-based pruning of the relocation
	// candidate scans (RelocEngine). Default on; the partition is
	// identical either way.
	Pruning clustering.PruneMode
	// Progress, when non-nil, observes every pass: iteration index, the
	// objective Σ_C J(C), and the number of relocations applied. The
	// monotone-convergence tests (Proposition 4) hang off this callback.
	Progress clustering.ProgressFunc
}

// Name implements clustering.Algorithm.
func (u *UCPC) Name() string { return "UCPC" }

// Cluster partitions ds into k clusters (Algorithm 1).
func (u *UCPC) Cluster(ctx context.Context, ds uncertain.Dataset, k int, r *rng.RNG) (*clustering.Report, error) {
	return u.cluster(ctx, ds, k, nil, r)
}

// ClusterFrom implements clustering.WarmStarter: it runs Algorithm 1 from
// the given initial assignment instead of the Init strategy. Clusters left
// empty by init are repaired from r before the first pass.
func (u *UCPC) ClusterFrom(ctx context.Context, ds uncertain.Dataset, k int, init []int, r *rng.RNG) (*clustering.Report, error) {
	if err := clustering.ValidateInit("ucpc", init, len(ds), k); err != nil {
		return nil, err
	}
	return u.cluster(ctx, ds, k, init, r)
}

func (u *UCPC) cluster(ctx context.Context, ds uncertain.Dataset, k int, init []int, r *rng.RNG) (*clustering.Report, error) {
	ctx = clustering.Ctx(ctx)
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	n, m := len(ds), ds.Dims()
	if err := clustering.ValidateK("ucpc", k, n); err != nil {
		return nil, err
	}
	maxIter := u.MaxIter
	if maxIter == 0 {
		maxIter = 100
	}
	minImprove := u.MinImprove
	if minImprove == 0 {
		minImprove = 1e-12
	}

	start := time.Now()

	// Pack the dataset's moments into a structure-of-arrays store once; the
	// relocation passes below only touch these flat slices.
	mom := uncertain.MomentsOf(ds)

	// Line 1-3: initial partition and per-cluster statistics. The
	// k-means++ assignment runs through the Assigner: ÊD(o, s_c) =
	// ‖µ(o) − µ(s_c)‖² + σ²(o) + σ²(s_c) is a Euclidean distance plus a
	// per-seed additive term (the σ²(o) part is constant across seeds). It
	// is a single pass, so it is a plain full scan: no bound it could seed
	// is ever reused.
	var assign []int
	var initPruned, initScanned int64
	switch {
	case init != nil:
		assign = clustering.RepairEmpty(append([]int(nil), init...), k, r)
	case u.Init == InitKMeansPP:
		seeds := clustering.KMeansPPCenters(ds, k, r)
		assign = make([]int, n)
		for i := range assign {
			assign[i] = -1
		}
		eng := NewAssigner(mom, k, false)
		centers := make([]float64, k*m)
		adds := make([]float64, k)
		for c, s := range seeds {
			copy(centers[c*m:(c+1)*m], mom.Mu(s))
			adds[c] = mom.TotalVar(s)
		}
		eng.SetCenters(centers, adds)
		eng.Assign(assign, u.Workers)
		initPruned, initScanned = eng.Counters()
		assign = clustering.RepairEmpty(assign, k, r)
	default:
		assign = clustering.RandomPartition(n, k, r)
	}

	stats := make([]*Stats, k)
	for c := range stats {
		stats[c] = NewStats(m)
	}
	AccumulateStats(mom, assign, stats)

	// Lines 4-16: relocation passes until fixed point, run by the
	// incremental-statistics engine (reloc.go): per-cluster scalar
	// sufficient statistics make a candidate evaluation O(1) beyond one
	// µ(o)·S dot product, the settled filter skips objects whose verdict
	// still holds, and the objective Σ_C J(C) is maintained by applied
	// deltas.
	eng := NewRelocEngine(RelocUCPC, mom, stats, u.Pruning.Enabled())
	iterations := 0
	converged := false
	for iterations < maxIter {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		iterations++
		moves, err := eng.Pass(ctx, assign, minImprove)
		if err != nil {
			return nil, err
		}
		u.Progress.Emit(u.Name(), iterations, eng.Objective(), moves)
		if moves == 0 {
			converged = true
			break
		}
	}

	pruned, scanned := eng.Counters()
	return &clustering.Report{
		Partition:         clustering.Partition{K: k, Assign: assign},
		Objective:         eng.Objective(),
		Iterations:        iterations,
		Converged:         converged,
		Online:            time.Since(start),
		PrunedCandidates:  pruned + initPruned,
		ScannedCandidates: scanned + initScanned,
	}, nil
}

// Objective returns Σ_C J(C) for an arbitrary assignment, recomputed from
// scratch. Exposed for tests and for external evaluation of partitions.
func Objective(ds uncertain.Dataset, assign []int, k int) float64 {
	stats := make([]*Stats, k)
	for c := range stats {
		stats[c] = NewStats(ds.Dims())
	}
	for i, o := range ds {
		if assign[i] >= 0 {
			stats[assign[i]].Add(o)
		}
	}
	var v float64
	for _, s := range stats {
		v += s.J()
	}
	return v
}
