// Package mmvar implements the MMVar algorithm (Gullo, Ponti, Tagarelli,
// ICDM 2010; paper §2.3): partitional clustering of uncertain objects that
// minimizes Σ_C J_MM(C), where J_MM(C) = σ²(C_MM) is the variance of the
// cluster's mixture-model centroid C_MM = (∪R, |C|⁻¹Σf).
//
// Like UCPC, MMVar is a local-search relocation heuristic with O(I·k·n·m)
// complexity; by Proposition 2 its objective equals J_UK(C)/|C|, which this
// implementation exploits through the shared closed-form cluster statistics.
package mmvar

import (
	"context"
	"time"

	"ucpc/internal/clustering"
	"ucpc/internal/core"
	"ucpc/internal/rng"
	"ucpc/internal/uncertain"
	"ucpc/internal/vec"
)

// MMVar is the mixture-model variance minimization algorithm.
type MMVar struct {
	// MaxIter caps relocation passes (0 = default 100).
	MaxIter int
	// MinImprove is the minimum relative decrease for a relocation
	// (0 = 1e-12), guarding termination against floating-point jitter.
	MinImprove float64
	// Pruning toggles the exact bound-based pruning of the relocation
	// candidate scans (core.RelocEngine). Default on; by Proposition 2 the
	// J_MM add-score decomposes like UCPC's, so the same O(1) lower bounds
	// apply and the partition is identical either way.
	Pruning clustering.PruneMode
	// Progress, when non-nil, observes every pass with the objective
	// Σ_C J_MM(C) and the number of relocations applied.
	Progress clustering.ProgressFunc
}

// Name implements clustering.Algorithm.
func (a *MMVar) Name() string { return "MMV" }

// Cluster partitions ds into k clusters by mixture-variance minimization.
func (a *MMVar) Cluster(ctx context.Context, ds uncertain.Dataset, k int, r *rng.RNG) (*clustering.Report, error) {
	return a.cluster(ctx, ds, k, nil, r)
}

// ClusterFrom implements clustering.WarmStarter: the relocation passes
// start from the given assignment (empty clusters repaired from r) instead
// of a random partition.
func (a *MMVar) ClusterFrom(ctx context.Context, ds uncertain.Dataset, k int, init []int, r *rng.RNG) (*clustering.Report, error) {
	if err := clustering.ValidateInit("mmvar", init, len(ds), k); err != nil {
		return nil, err
	}
	return a.cluster(ctx, ds, k, init, r)
}

func (a *MMVar) cluster(ctx context.Context, ds uncertain.Dataset, k int, init []int, r *rng.RNG) (*clustering.Report, error) {
	ctx = clustering.Ctx(ctx)
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	n, m := len(ds), ds.Dims()
	if err := clustering.ValidateK("mmvar", k, n); err != nil {
		return nil, err
	}
	maxIter := a.MaxIter
	if maxIter == 0 {
		maxIter = 100
	}
	minImprove := a.MinImprove
	if minImprove == 0 {
		minImprove = 1e-12
	}
	start := time.Now()

	// Flat moment store: the relocation passes below only read these
	// contiguous rows (the J_MM scoring needs µ and µ₂ alone).
	mom := uncertain.MomentsOf(ds)
	var assign []int
	if init != nil {
		assign = clustering.RepairEmpty(append([]int(nil), init...), k, r)
	} else {
		assign = clustering.RandomPartition(n, k, r)
	}
	stats := make([]*core.Stats, k)
	for c := range stats {
		stats[c] = core.NewStats(m)
	}
	for i := 0; i < n; i++ {
		stats[assign[i]].AddRow(mom.Mu(i), mom.Mu2(i), mom.Sigma2(i))
	}

	// The relocation passes run on the shared incremental-statistics engine
	// (core.RelocEngine): by Proposition 2 the J_MM scores reduce to the
	// same per-cluster scalars as UCPC's, so candidate evaluation is O(1)
	// beyond one µ(o)·S dot product and the objective is maintained by
	// applied deltas.
	eng := core.NewRelocEngine(core.RelocMMVar, mom, stats, a.Pruning.Enabled())
	iterations, converged := 0, false
	for iterations < maxIter {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		iterations++
		moves, err := eng.Pass(ctx, assign, minImprove)
		if err != nil {
			return nil, err
		}
		a.Progress.Emit(a.Name(), iterations, eng.Objective(), moves)
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
		PrunedCandidates:  pruned,
		ScannedCandidates: scanned,
	}, nil
}

// Centroid is the MMVar mixture-model centroid C_MM of a cluster: an
// uncertain object whose region is the union of the member regions and
// whose pdf is the average of the member pdfs (paper eq. 10).
type Centroid struct {
	members []*uncertain.Object
	region  vec.Box
	mu, mu2 vec.Vector
}

// NewCentroid builds the mixture centroid of a non-empty cluster.
func NewCentroid(members []*uncertain.Object) *Centroid {
	if len(members) == 0 {
		panic("mmvar: centroid of empty cluster")
	}
	m := members[0].Dims()
	n := float64(len(members))
	c := &Centroid{
		members: members,
		region:  members[0].Region(),
		mu:      vec.New(m),
		mu2:     vec.New(m),
	}
	for i, o := range members {
		if i > 0 {
			c.region = c.region.Union(o.Region())
		}
		vec.AddInPlace(c.mu, o.Mean())
		vec.AddInPlace(c.mu2, o.SecondMoment())
	}
	// Lemma 2: µ(C_MM) = |C|⁻¹Σµ(o), µ₂(C_MM) = |C|⁻¹Σµ₂(o).
	vec.ScaleInPlace(c.mu, 1/n)
	vec.ScaleInPlace(c.mu2, 1/n)
	return c
}

// Region returns the union region R_MM.
func (c *Centroid) Region() vec.Box { return c.region }

// Mean returns µ(C_MM). Shared slice; do not modify.
func (c *Centroid) Mean() vec.Vector { return c.mu }

// SecondMoment returns µ₂(C_MM). Shared slice; do not modify.
func (c *Centroid) SecondMoment() vec.Vector { return c.mu2 }

// TotalVar returns σ²(C_MM) = Σ_j [(µ₂)_j − µ_j²], the MMVar cluster
// compactness J_MM (paper eq. 11).
func (c *Centroid) TotalVar() float64 {
	var v float64
	for j := range c.mu {
		v += c.mu2[j] - c.mu[j]*c.mu[j]
	}
	return v
}

// PDF evaluates the mixture density f_MM(x) = |C|⁻¹ Σ f_o(x).
func (c *Centroid) PDF(x vec.Vector) float64 {
	var p float64
	for _, o := range c.members {
		p += o.PDF(x)
	}
	return p / float64(len(c.members))
}

// Sample draws one realization of the mixture: pick a member uniformly,
// then sample it.
func (c *Centroid) Sample(r *rng.RNG) vec.Vector {
	return c.members[r.Intn(len(c.members))].Sample(r)
}
