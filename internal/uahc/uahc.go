// Package uahc implements an agglomerative hierarchical clustering
// algorithm for uncertain objects in the role of U-AHC (Gullo et al., ICDM
// 2008; paper ref. [9]).
//
// Substitution note: the original U-AHC merges clusters via
// an information-theoretic similarity between uncertain cluster prototypes.
// Here the default linkage represents each cluster by its mixture-model
// prototype and merges the pair whose merge least increases the
// size-weighted prototype variance |C|·σ²(C_MM) — by Proposition 2 this is
// exactly the increase of the UK-means objective J_UK, i.e. a Ward-style
// criterion on uncertain prototypes. Classic single/complete/average
// linkages over the pairwise ÊD matrix are also provided. The asymptotics
// (quadratic space, near-quadratic time, orders of magnitude slower than
// the partitional methods) match the baseline's role in the paper's
// Figure 4.
package uahc

import (
	"context"
	"math"
	"time"

	"ucpc/internal/clustering"
	"ucpc/internal/core"
	"ucpc/internal/rng"
	"ucpc/internal/ukmedoids"
	"ucpc/internal/uncertain"
)

// Linkage selects the inter-cluster dissimilarity.
type Linkage int

const (
	// LinkagePrototype merges the pair minimizing the increase of the
	// size-weighted mixture-prototype variance (default; the U-AHC
	// stand-in).
	LinkagePrototype Linkage = iota
	// LinkageSingle uses min pairwise ÊD.
	LinkageSingle
	// LinkageComplete uses max pairwise ÊD.
	LinkageComplete
	// LinkageAverage uses mean pairwise ÊD.
	LinkageAverage
)

// UAHC is the agglomerative hierarchical algorithm.
type UAHC struct {
	Linkage Linkage
	// Workers sizes the worker pool of the off-line ÊD matrix build
	// (<= 0 means GOMAXPROCS).
	Workers int
}

// Name implements clustering.Algorithm.
func (a *UAHC) Name() string { return "UAHC" }

// Merge records one agglomeration step: clusters A and B (ids in the
// forest) merged at the given linkage distance.
type Merge struct {
	A, B int
	Dist float64
}

// Cluster merges bottom-up until k clusters remain.
func (a *UAHC) Cluster(ctx context.Context, ds uncertain.Dataset, k int, r *rng.RNG) (*clustering.Report, error) {
	rep, _, err := a.ClusterWithDendrogram(ctx, ds, k, r)
	return rep, err
}

// ClusterWithDendrogram is Cluster plus the sequence of merges performed.
func (a *UAHC) ClusterWithDendrogram(ctx context.Context, ds uncertain.Dataset, k int, _ *rng.RNG) (*clustering.Report, []Merge, error) {
	ctx = clustering.Ctx(ctx)
	if err := ds.Validate(); err != nil {
		return nil, nil, err
	}
	n := len(ds)
	if err := clustering.ValidateK("uahc", k, n); err != nil {
		return nil, nil, err
	}

	// Off-line phase: the pairwise ÊD matrix for the classic linkages.
	offStart := time.Now()
	var dm *ukmedoids.DistMatrix
	if a.Linkage != LinkagePrototype {
		dm = ukmedoids.MatrixWorkers(ds, a.Workers)
	}
	offline := time.Since(offStart)

	start := time.Now()
	active := make([]bool, n)
	members := make([][]int, n)
	stats := make([]*core.Stats, n)
	for i := range ds {
		active[i] = true
		members[i] = []int{i}
		stats[i] = core.NewStatsOf([]*uncertain.Object{ds[i]})
	}

	// dist returns the current linkage distance between active clusters.
	dist := func(x, y int) float64 {
		switch a.Linkage {
		case LinkageSingle:
			best := math.Inf(1)
			for _, i := range members[x] {
				for _, j := range members[y] {
					if d := dm.At(i, j); d < best {
						best = d
					}
				}
			}
			return best
		case LinkageComplete:
			worst := math.Inf(-1)
			for _, i := range members[x] {
				for _, j := range members[y] {
					if d := dm.At(i, j); d > worst {
						worst = d
					}
				}
			}
			return worst
		case LinkageAverage:
			var sum float64
			for _, i := range members[x] {
				for _, j := range members[y] {
					sum += dm.At(i, j)
				}
			}
			return sum / float64(len(members[x])*len(members[y]))
		default: // LinkagePrototype: ΔJ_UK = Δ(|C|·σ²(C_MM)), Ward-style.
			merged := stats[x].Clone()
			for _, j := range members[y] {
				merged.Add(ds[j])
			}
			return merged.JUK() - stats[x].JUK() - stats[y].JUK()
		}
	}

	// Nearest-neighbor cache per active cluster.
	nn := make([]int, n)
	nnd := make([]float64, n)
	recomputeNN := func(x int) {
		nn[x], nnd[x] = -1, math.Inf(1)
		for y := 0; y < n; y++ {
			if y == x || !active[y] {
				continue
			}
			if d := dist(x, y); d < nnd[x] {
				nn[x], nnd[x] = y, d
			}
		}
	}
	for i := 0; i < n; i++ {
		recomputeNN(i)
	}

	merges := make([]Merge, 0, n-k)
	for remaining := n; remaining > k; remaining-- {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		// Global best pair from the NN cache.
		best, bestD := -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if active[i] && nn[i] >= 0 && nnd[i] < bestD {
				best, bestD = i, nnd[i]
			}
		}
		other := nn[best]
		merges = append(merges, Merge{A: best, B: other, Dist: bestD})

		// Merge `other` into `best`.
		members[best] = append(members[best], members[other]...)
		for _, j := range members[other] {
			stats[best].Add(ds[j])
		}
		active[other] = false
		members[other] = nil
		stats[other] = nil

		// Refresh caches: the merged cluster and everyone who pointed at
		// either of the merged pair.
		recomputeNN(best)
		for i := 0; i < n; i++ {
			if !active[i] || i == best {
				continue
			}
			if nn[i] == best || nn[i] == other {
				recomputeNN(i)
			} else if d := dist(i, best); d < nnd[i] {
				nn[i], nnd[i] = best, d
			}
		}
	}

	assign := make([]int, n)
	cid := 0
	for x := 0; x < n; x++ {
		if !active[x] {
			continue
		}
		for _, i := range members[x] {
			assign[i] = cid
		}
		cid++
	}

	// Objective: total U-centroid compactness of the final partition
	// (comparable across hierarchical and partitional methods).
	objective := core.Objective(ds, assign, k)
	return &clustering.Report{
		Partition:  clustering.Partition{K: k, Assign: assign},
		Objective:  objective,
		Iterations: n - k,
		Converged:  true,
		Online:     time.Since(start),
		Offline:    offline,
	}, merges, nil
}
