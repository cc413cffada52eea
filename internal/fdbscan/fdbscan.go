// Package fdbscan implements FDBSCAN (Kriegel & Pfeifle, KDD 2005; paper
// ref. [12]): density-based clustering of uncertain objects using fuzzy
// distance probabilities.
//
// Substitution note: the published algorithm computes
// distance probabilities P(d(o,o′) ≤ ε) from the object pdfs; here they are
// estimated from per-object sample clouds (the same Monte Carlo machinery
// the basic UK-means uses), which preserves both the clustering semantics
// and the characteristic quadratic cost that places FDBSCAN orders of
// magnitude behind the partitional methods in the paper's Figure 4.
package fdbscan

import (
	"context"
	"math"
	"sort"
	"time"

	"ucpc/internal/clustering"
	"ucpc/internal/rng"
	"ucpc/internal/uncertain"
)

func init() {
	clustering.Register(clustering.Registration{
		Name: "FDB", Rank: 110, Prototype: clustering.ProtoUCentroid, KIsHint: true,
		New: func(cfg clustering.Config) clustering.Algorithm {
			return &FDBSCAN{}
		},
	})
}

// FDBSCAN is the fuzzy density-based clustering algorithm.
type FDBSCAN struct {
	// Eps is the fuzzy distance threshold ε (0 = auto-calibrated from the
	// distance distribution; see calibrateEps).
	Eps float64
	// MinPts is the minimum expected number of ε-neighbors for a core
	// object (0 = default 4).
	MinPts int
	// Samples is the per-object sample-cloud size (0 = default 8, small
	// clouds as in the original paper's lens approximations).
	Samples int
	// ReachProb is the minimum distance probability for an object to be
	// directly density-reachable from a core object (0 = default 0.3).
	ReachProb float64
}

// Name implements clustering.Algorithm.
func (a *FDBSCAN) Name() string { return "FDB" }

// Cluster runs FDBSCAN. k is used only to calibrate ε when Eps is zero;
// the number of produced clusters is data-driven and unassigned objects
// keep the Noise label.
func (a *FDBSCAN) Cluster(ctx context.Context, ds uncertain.Dataset, k int, r *rng.RNG) (*clustering.Report, error) {
	ctx = clustering.Ctx(ctx)
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	n := len(ds)
	minPts := a.MinPts
	if minPts == 0 {
		minPts = 4
	}
	samples := a.Samples
	if samples == 0 {
		samples = 8
	}
	reachProb := a.ReachProb
	if reachProb == 0 {
		reachProb = 0.3
	}

	offStart := time.Now()
	ds.EnsureSamples(r.Split(0xfdb), samples)
	eps := a.Eps
	if eps == 0 {
		eps = calibrateEps(ds, minPts)
	}
	offline := time.Since(offStart)

	start := time.Now()
	// Fuzzy distance probabilities and expected neighbor counts.
	prob := make([][]float64, n)
	for i := range prob {
		prob[i] = make([]float64, n)
	}
	expected := make([]float64, n)
	for i := 0; i < n; i++ {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for j := i + 1; j < n; j++ {
			p := uncertain.DistProbability(ds[i], ds[j], eps, true)
			prob[i][j], prob[j][i] = p, p
			expected[i] += p
			expected[j] += p
		}
	}
	core := make([]bool, n)
	for i := range core {
		core[i] = expected[i] >= float64(minPts)
	}

	// Expansion: BFS from unvisited core objects.
	assign := make([]int, n)
	for i := range assign {
		assign[i] = clustering.Noise
	}
	cid := 0
	queue := make([]int, 0, n)
	for seed := 0; seed < n; seed++ {
		if !core[seed] || assign[seed] != clustering.Noise {
			continue
		}
		assign[seed] = cid
		queue = append(queue[:0], seed)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			if !core[cur] {
				continue // border objects do not expand
			}
			for j := 0; j < n; j++ {
				if assign[j] != clustering.Noise || prob[cur][j] < reachProb {
					continue
				}
				assign[j] = cid
				queue = append(queue, j)
			}
		}
		cid++
	}

	if cid == 0 {
		cid = 1 // keep Partition well-formed when everything is noise
	}
	return &clustering.Report{
		Partition:  clustering.Partition{K: cid, Assign: assign},
		Objective:  math.NaN(),
		Iterations: 1,
		Converged:  true,
		Online:     time.Since(start),
		Offline:    offline,
	}, nil
}

// calibrateEps picks ε as the median over objects of the distance to the
// MinPts-th nearest neighbor, measured between expected values — the
// classic k-dist heuristic lifted to uncertain objects.
func calibrateEps(ds uncertain.Dataset, minPts int) float64 {
	n := len(ds)
	if n <= minPts {
		return 1
	}
	kd := make([]float64, 0, n)
	dists := make([]float64, n)
	for i := 0; i < n; i++ {
		dists = dists[:0]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := math.Sqrt(uncertain.EED(ds[i], ds[j]))
			dists = append(dists, d)
		}
		sort.Float64s(dists)
		idx := minPts - 1
		if idx >= len(dists) {
			idx = len(dists) - 1
		}
		kd = append(kd, dists[idx])
	}
	sort.Float64s(kd)
	return kd[len(kd)/2]
}
