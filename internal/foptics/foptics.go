// Package foptics implements FOPTICS (Kriegel & Pfeifle, ICDM 2005; paper
// ref. [13]): hierarchical density-based cluster ordering of uncertain
// objects, plus a threshold-based extraction step that turns the ordering
// into a flat partition.
//
// Substitution note: fuzzy distances between uncertain
// objects are estimated as the mean Euclidean distance over paired samples
// of the two objects' clouds, replacing the original paper's closed-form
// lens computations while preserving the algorithm's structure and its
// quadratic cost profile.
package foptics

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"ucpc/internal/clustering"
	"ucpc/internal/rng"
	"ucpc/internal/uncertain"
	"ucpc/internal/vec"
)

func init() {
	clustering.Register(clustering.Registration{
		Name: "FOPT", Rank: 120, Prototype: clustering.ProtoUCentroid, KIsHint: true,
		New: func(cfg clustering.Config) clustering.Algorithm {
			return &FOPTICS{}
		},
	})
}

// FOPTICS is the fuzzy OPTICS algorithm.
type FOPTICS struct {
	// MinPts is the density parameter (0 = default 4).
	MinPts int
	// Samples is the per-object cloud size (0 = default 8).
	Samples int
}

// Name implements clustering.Algorithm.
func (a *FOPTICS) Name() string { return "FOPT" }

// Ordering is the OPTICS output: the visit order with per-position
// reachability and core distances.
type Ordering struct {
	Order     []int
	Reach     []float64 // reachability distance of Order[i] (Inf for seeds)
	CoreDist  []float64 // core distance of Order[i]
	Distances func(i, j int) float64
}

// Cluster computes the cluster ordering and extracts the flat partition
// whose cluster count is closest to k.
func (a *FOPTICS) Cluster(ctx context.Context, ds uncertain.Dataset, k int, r *rng.RNG) (*clustering.Report, error) {
	ctx = clustering.Ctx(ctx)
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	n := len(ds)
	minPts := a.MinPts
	if minPts == 0 {
		minPts = 4
	}
	if minPts >= n {
		minPts = n - 1
	}
	if minPts < 1 {
		return nil, fmt.Errorf("foptics: dataset too small (n=%d)", n)
	}
	samples := a.Samples
	if samples == 0 {
		samples = 8
	}

	// Off-line: clouds and the fuzzy distance matrix.
	offStart := time.Now()
	ds.EnsureSamples(r.Split(0xf0b7), samples)
	dm, err := fuzzyDistances(ctx, ds)
	if err != nil {
		return nil, err
	}
	offline := time.Since(offStart)

	start := time.Now()
	ord, err := computeOrdering(ctx, n, minPts, func(i, j int) float64 { return dm[i][j] })
	if err != nil {
		return nil, err
	}
	assign, clusters := ExtractK(ord, k, n)
	online := time.Since(start)

	if clusters == 0 {
		clusters = 1
	}
	return &clustering.Report{
		Partition:  clustering.Partition{K: clusters, Assign: assign},
		Objective:  math.NaN(),
		Iterations: 1,
		Converged:  true,
		Online:     online,
		Offline:    offline,
	}, nil
}

// fuzzyDistances estimates E[d(o_i, o_j)] (Euclidean) by averaging over
// paired cloud samples.
func fuzzyDistances(ctx context.Context, ds uncertain.Dataset) ([][]float64, error) {
	n := len(ds)
	dm := make([][]float64, n)
	for i := range dm {
		dm[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		si := ds[i].Samples()
		for j := i + 1; j < n; j++ {
			sj := ds[j].Samples()
			s := len(si)
			if len(sj) < s {
				s = len(sj)
			}
			var acc float64
			for t := 0; t < s; t++ {
				acc += vec.Dist(si[t], sj[t])
			}
			d := acc / float64(s)
			dm[i][j], dm[j][i] = d, d
		}
	}
	return dm, nil
}

// computeOrdering is the standard OPTICS loop (no spatial index, O(n²)),
// parameterized by a distance oracle.
func computeOrdering(ctx context.Context, n, minPts int, dist func(i, j int) float64) (*Ordering, error) {
	coreDist := make([]float64, n)
	tmp := make([]float64, 0, n-1)
	for i := 0; i < n; i++ {
		if i%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		tmp = tmp[:0]
		for j := 0; j < n; j++ {
			if j != i {
				tmp = append(tmp, dist(i, j))
			}
		}
		sort.Float64s(tmp)
		coreDist[i] = tmp[minPts-1]
	}

	processed := make([]bool, n)
	reach := make([]float64, n)
	for i := range reach {
		reach[i] = math.Inf(1)
	}
	order := make([]int, 0, n)
	orderReach := make([]float64, 0, n)
	orderCore := make([]float64, 0, n)

	for start := 0; start < n; start++ {
		if processed[start] {
			continue
		}
		// Seed a new walk.
		cur := start
		curReach := math.Inf(1)
		for cur >= 0 {
			if len(order)%256 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			processed[cur] = true
			order = append(order, cur)
			orderReach = append(orderReach, curReach)
			orderCore = append(orderCore, coreDist[cur])
			// Update reachabilities of unprocessed objects.
			for j := 0; j < n; j++ {
				if processed[j] {
					continue
				}
				rd := math.Max(coreDist[cur], dist(cur, j))
				if rd < reach[j] {
					reach[j] = rd
				}
			}
			// Next: unprocessed object with smallest reachability.
			next, nextReach := -1, math.Inf(1)
			for j := 0; j < n; j++ {
				if !processed[j] && reach[j] < nextReach {
					next, nextReach = j, reach[j]
				}
			}
			cur, curReach = next, nextReach
		}
	}
	return &Ordering{Order: order, Reach: orderReach, CoreDist: orderCore}, nil
}

// ExtractK extracts a flat clustering from the ordering by scanning
// candidate reachability thresholds and keeping the one whose cluster count
// is closest to k (ties prefer fewer noise objects). Objects whose
// reachability and core distance both exceed the threshold become noise.
func ExtractK(ord *Ordering, k, n int) (assign []int, clusters int) {
	// Candidate thresholds: quantiles of the finite reachability values.
	finite := make([]float64, 0, n)
	for _, rd := range ord.Reach {
		if !math.IsInf(rd, 1) {
			finite = append(finite, rd)
		}
	}
	if len(finite) == 0 {
		// Single walk with no reachable pairs: everything in one cluster.
		assign = make([]int, n)
		return assign, 1
	}
	sort.Float64s(finite)
	candidates := make([]float64, 0, 64)
	for q := 1; q <= 64; q++ {
		idx := (len(finite) - 1) * q / 64
		candidates = append(candidates, finite[idx]*1.0000001)
	}

	bestAssign := make([]int, n)
	bestClusters := -1
	bestScore := math.Inf(1)
	cur := make([]int, n)
	for _, t := range candidates {
		c, noise := cutAt(ord, t, cur)
		score := math.Abs(float64(c-k)) + float64(noise)/float64(4*n)
		if c > 0 && score < bestScore {
			bestScore = score
			bestClusters = c
			copy(bestAssign, cur)
		}
	}
	if bestClusters < 0 {
		// Degenerate: one big cluster.
		for i := range bestAssign {
			bestAssign[i] = 0
		}
		bestClusters = 1
	}
	return bestAssign, bestClusters
}

// cutAt assigns cluster ids by walking the ordering with threshold t.
func cutAt(ord *Ordering, t float64, assign []int) (clusters, noise int) {
	for i := range assign {
		assign[i] = clustering.Noise
	}
	cid := -1
	for pos, obj := range ord.Order {
		if ord.Reach[pos] > t {
			if ord.CoreDist[pos] <= t {
				cid++
				assign[obj] = cid
			} else {
				noise++
			}
			continue
		}
		if cid < 0 {
			cid = 0
		}
		assign[obj] = cid
	}
	return cid + 1, noise
}
