package core

import (
	"context"
	"time"

	"ucpc/internal/clustering"
	"ucpc/internal/rng"
	"ucpc/internal/uncertain"
	"ucpc/internal/vec"
)

// UCPCLloyd is a batch (Lloyd-style) variant of UCPC: instead of relocating
// one object at a time (Algorithm 1), it alternates a full assignment step
// — every object moves to the cluster whose *current* U-centroid minimizes
// ÊD(o, C̄) — with a centroid refresh. It serves as an ablation of the
// paper's relocation design choice (BenchmarkUCPCLloyd against
// BenchmarkUCPCRelocation measures it): batch steps are embarrassingly
// parallel but, unlike Algorithm 1, the objective is not guaranteed to
// decrease monotonically because ÊD is measured against the centroid of
// the *previous* assignment.
//
// ÊD(o, C̄_c) decomposes as ‖µ(o) − µ(C̄_c)‖² + σ²(o) + σ²(C̄_c), i.e. a
// Euclidean distance plus the per-centroid additive term v_c = σ²(C̄_c),
// so UCPC-Lloyd runs the same Lloyd loop as UKMeans (the v_c = 0 case)
// with its own incremental U-centroid refresh and empty-cluster reseeding.
// The assignment step fans the exact pruning engine (Assigner) over a
// worker pool; every object's decision is independent of the others, so
// the partition is bit-identical for every worker count and for pruning
// on vs. off.
type UCPCLloyd struct {
	// MaxIter caps the assignment/update rounds (0 = default 100).
	MaxIter int
	// Workers sizes the assignment worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// Pruning toggles the exact bound-based assignment pruning (default
	// on). Results are identical either way; only the arithmetic differs.
	Pruning clustering.PruneMode
	// Progress, when non-nil, observes every round with the objective
	// Σ_C J(C) and the number of objects that changed cluster. Both are
	// computed only when the callback is set (the objective recompute and
	// the pre-round assignment snapshot are not free).
	Progress clustering.ProgressFunc
}

// Name implements clustering.Algorithm.
func (u *UCPCLloyd) Name() string { return "UCPC-Lloyd" }

// centroidScores holds the per-cluster constants of the ÊD(o, C̄) argmin in
// flat form: score(o, c) = bias[c] − 2·µ(o)·mean[c·m:(c+1)·m], with
// bias[c] = Σ_j (µ₂)_j(C̄_c). Minimizing the score over c is equivalent to
// minimizing ÊD(o, C̄_c) because the µ₂(o) term is constant in c (Lemma 3).
//
// The per-cluster running sums are incremental statistics maintained across
// refreshes: a refresh rebuilds only the *dirty* clusters — those whose
// membership changed since the previous refresh — by re-accumulating their
// members in dataset order, exactly as a from-scratch build would. Clean
// clusters keep their previous sums, which were produced by the same
// in-order accumulation over the same membership, so the resulting state is
// bit-identical to a full rebuild while costing O(n + Σ_dirty |C|·m)
// instead of O(n·m). All scratch is allocated once, so steady-state
// iterations perform no heap allocations.
type centroidScores struct {
	k, m int
	mean []float64 // k*m, row-major U-centroid means
	bias []float64 // k

	counts   []int
	sumMu    []float64 // k*m, Σ µ per cluster
	sumMu2   []float64 // k*m, Σ µ₂ per cluster
	sumMuSq  []float64 // k*m, Σ µ² per cluster
	prev     []int     // n, assignment as of the previous refresh (post-reseed)
	dirty    []bool    // k, scratch: clusters to rebuild this refresh
	stale    []bool    // k, clusters reseed-adjusted since their last rebuild
	reseeded []int     // scratch for the return value
	built    bool
	// forceFull disables the dirty-cluster optimization so tests can prove
	// the incremental path bit-identical to a full rebuild.
	forceFull bool
}

func newCentroidScores(k, m, n int) *centroidScores {
	return &centroidScores{
		k:       k,
		m:       m,
		mean:    make([]float64, k*m),
		bias:    make([]float64, k),
		counts:  make([]int, k),
		sumMu:   make([]float64, k*m),
		sumMu2:  make([]float64, k*m),
		sumMuSq: make([]float64, k*m),
		prev:    make([]int, n),
		dirty:   make([]bool, k),
		stale:   make([]bool, k),
	}
}

// refresh recomputes every cluster's U-centroid mean and bias from the
// moment store and the current assignment (Lemma 5 closed forms),
// rebuilding only dirty clusters' sums (see the type comment). Empty
// clusters are reseeded on the object farthest from its own cluster's
// current mean; the running sums are updated incrementally after each
// reseed so every decision sees fresh state (the touched clusters are
// marked stale and rebuilt from scratch on the next refresh), and donors
// are restricted to clusters with at least two members so a reseed can
// never create a new empty cluster (or steal a just-reseeded object). It
// returns the indexes of reseeded objects so the caller can invalidate
// their pruning bounds.
func (cs *centroidScores) refresh(mom *uncertain.Moments, assign []int) (reseeded []int) {
	n, m, k := mom.Len(), cs.m, cs.k
	counts, sumMu, sumMu2, sumMuSq := cs.counts, cs.sumMu, cs.sumMu2, cs.sumMuSq
	for c := 0; c < k; c++ {
		cs.dirty[c] = !cs.built || cs.stale[c] || cs.forceFull
		cs.stale[c] = false
	}
	if cs.built {
		for i := 0; i < n; i++ {
			if c := assign[i]; c != cs.prev[i] {
				cs.dirty[c] = true
				cs.dirty[cs.prev[i]] = true
			}
		}
	}
	for c := 0; c < k; c++ {
		if !cs.dirty[c] {
			continue
		}
		counts[c] = 0
		row := c * m
		for j := 0; j < m; j++ {
			sumMu[row+j], sumMu2[row+j], sumMuSq[row+j] = 0, 0, 0
		}
	}
	for i := 0; i < n; i++ {
		c := assign[i]
		if !cs.dirty[c] {
			continue
		}
		counts[c]++
		mu, mu2 := mom.Mu(i), mom.Mu2(i)
		row := c * m
		for j := 0; j < m; j++ {
			sumMu[row+j] += mu[j]
			sumMu2[row+j] += mu2[j]
			sumMuSq[row+j] += mu[j] * mu[j]
		}
	}
	cs.built = true
	cs.reseeded = cs.reseeded[:0]
	for c := 0; c < k; c++ {
		if counts[c] > 0 {
			continue
		}
		// Farthest object from its own cluster's mean (computed from the
		// live sums), among clusters that can afford to lose a member.
		// n >= k guarantees such a donor exists while any cluster is empty.
		far, farD := -1, -1.0
		for i := 0; i < n; i++ {
			co := assign[i]
			if counts[co] < 2 {
				continue
			}
			row := co * m
			mu := mom.Mu(i)
			inv := 1 / float64(counts[co])
			var d float64
			for j := 0; j < m; j++ {
				diff := mu[j] - sumMu[row+j]*inv
				d += diff * diff
			}
			if d > farD {
				far, farD = i, d
			}
		}
		if far < 0 {
			continue // unreachable for k <= n; keep the sums finite anyway
		}
		// Move the object from its donor cluster to c, updating the sums.
		// The incremental -=/+= adjustment leaves different low-order bits
		// than an in-order rebuild would, so both touched clusters are
		// marked stale and rebuilt from scratch on the next refresh.
		from := assign[far]
		assign[far] = c
		cs.reseeded = append(cs.reseeded, far)
		cs.stale[from], cs.stale[c] = true, true
		counts[from]--
		counts[c]++
		mu, mu2 := mom.Mu(far), mom.Mu2(far)
		fromRow, toRow := from*m, c*m
		for j := 0; j < m; j++ {
			sumMu[fromRow+j] -= mu[j]
			sumMu2[fromRow+j] -= mu2[j]
			sumMuSq[fromRow+j] -= mu[j] * mu[j]
			sumMu[toRow+j] += mu[j]
			sumMu2[toRow+j] += mu2[j]
			sumMuSq[toRow+j] += mu[j] * mu[j]
		}
	}
	copy(cs.prev, assign)
	for c := 0; c < k; c++ {
		inv := 1 / float64(counts[c])
		row := c * m
		var bias float64
		for j := 0; j < m; j++ {
			// Lemma 5: µ(C̄) = |C|⁻¹ Σ µ(o_i);
			// µ₂(C̄) = |C|⁻²[ Σµ₂ + (Σµ)² − Σµ² ].
			cs.mean[row+j] = sumMu[row+j] * inv
			bias += (sumMu2[row+j] + sumMu[row+j]*sumMu[row+j] - sumMuSq[row+j]) * inv * inv
		}
		cs.bias[c] = bias
	}
	return cs.reseeded
}

// objective returns Σ_C J(C) of the assignment the sums describe, computed
// from the maintained per-cluster statistics in O(k·m) instead of a full
// O(n·m) re-accumulation: Ψ^{(j)} = Σµ₂ − Σµ², Φ^{(j)} = Σµ₂, S^{(j)} = Σµ
// (Theorem 3).
func (cs *centroidScores) objective() float64 {
	var total float64
	for c := 0; c < cs.k; c++ {
		if cs.counts[c] == 0 {
			continue
		}
		inv := 1 / float64(cs.counts[c])
		row := c * cs.m
		for j := 0; j < cs.m; j++ {
			psi := cs.sumMu2[row+j] - cs.sumMuSq[row+j]
			total += psi*inv + cs.sumMu2[row+j] - cs.sumMu[row+j]*cs.sumMu[row+j]*inv
		}
	}
	return total
}

// addTerms fills adds (k, reused across calls) with the per-centroid
// additive terms of ÊD(o, C̄_c): the centroid's total variance σ²(C̄_c) =
// Σ_j µ₂(C̄_c)_j − ‖µ(C̄_c)‖² = bias_c − ‖mean_c‖².
func (cs *centroidScores) addTerms(adds []float64) {
	for c := 0; c < cs.k; c++ {
		row := cs.mean[c*cs.m : (c+1)*cs.m]
		var dot float64
		for _, v := range row {
			dot += v * v
		}
		adds[c] = cs.bias[c] - dot
	}
}

// install pushes the current U-centroid state into the pruning engine: the
// centroid means are the Euclidean part of ÊD(o, C̄_c) plus the addTerms
// additive parts.
func (cs *centroidScores) install(eng *Assigner, adds []float64) {
	cs.addTerms(adds)
	eng.SetCenters(cs.mean, adds)
}

// UCentroidAssignState fills centers (flat k*m, row-major) and adds (k)
// with the U-centroid means and total variances σ²(C̄) of the given
// partition — the ÊD scoring state UCPC-Lloyd's assignment step installs
// into the pruning engine each round. Exported for the bench harness's
// steady-state measurements; assign must describe k non-empty clusters.
func UCentroidAssignState(mom *uncertain.Moments, assign []int, k int, centers, adds []float64) {
	cs := newCentroidScores(k, mom.Dims(), mom.Len())
	cs.refresh(mom, append([]int(nil), assign...))
	copy(centers, cs.mean)
	cs.addTerms(adds)
}

// lloydSteps is what one algorithm supplies to the shared Lloyd loop
// (lloyd): every algorithm on it minimises ‖µ(o) − y_c‖² + v_c in its
// assignment step (Lemma 3, Corollary 1) and differs only in how y_c and
// v_c follow from a partition and in the objective it reports.
type lloydSteps struct {
	// refresh recomputes the centroids from assign and returns the objects
	// it moved to reseed empty clusters.
	refresh func(assign []int) (reseeded []int)
	// install pushes the refreshed centroids y_c and additive terms v_c
	// into the engine.
	install func(eng *Assigner)
	// objective returns the algorithm's objective for assign; the loop
	// calls it after refresh.
	objective func(assign []int) float64
}

// lloyd is the one Lloyd loop behind UKMeans and UCPCLloyd. start builds the
// initial assignment (entries may be -1 when the first step scores against
// seed centres) and the algorithm's steps over the dataset's moment store.
// Each round runs the pruned assignment step, the centroid refresh,
// invalidates reseeded objects' bounds, emits Progress, and stops once the
// assignment step moved nothing; otherwise it installs the new centroids.
func lloyd(ctx context.Context, ds uncertain.Dataset, k int, label, name string, cfg clustering.Config,
	start func(mom *uncertain.Moments) (assign []int, steps lloydSteps)) (*clustering.Report, error) {
	ctx = clustering.Ctx(ctx)
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if err := clustering.ValidateK(label, k, len(ds)); err != nil {
		return nil, err
	}
	maxIter := cfg.MaxIter
	if maxIter == 0 {
		maxIter = 100
	}
	workers := clustering.Workers(cfg.Workers)
	t0 := time.Now()

	mom := uncertain.MomentsOf(ds)
	assign, steps := start(mom)
	eng := NewAssigner(mom, k, cfg.Pruning.Enabled())
	steps.install(eng)
	var prev []int // pre-round snapshot, kept only for Progress
	if cfg.Progress != nil {
		prev = make([]int, len(assign))
	}
	iterations, converged := 0, false
	for iterations < maxIter {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		iterations++
		copy(prev, assign)
		changed := eng.Assign(assign, workers)
		// Moves are counted before the refresh: reseeds are not moves.
		moves := 0
		for i, c := range prev {
			if assign[i] != c {
				moves++
			}
		}
		for _, i := range steps.refresh(assign) {
			// A reseed moved the object behind the engine's back; its
			// bounds no longer describe its assigned centroid.
			eng.Invalidate(i)
		}
		if prev != nil {
			cfg.Progress.Emit(name, iterations, steps.objective(assign), moves)
		}
		if !changed {
			converged = true
			break
		}
		steps.install(eng)
	}

	pruned, scanned := eng.Counters()
	return &clustering.Report{
		Partition:         clustering.Partition{K: k, Assign: assign},
		Objective:         steps.objective(assign),
		Iterations:        iterations,
		Converged:         converged,
		Online:            time.Since(t0),
		PrunedCandidates:  pruned,
		ScannedCandidates: scanned,
	}, nil
}

// Cluster runs the batch variant.
func (u *UCPCLloyd) Cluster(ctx context.Context, ds uncertain.Dataset, k int, r *rng.RNG) (*clustering.Report, error) {
	return u.cluster(ctx, ds, k, nil, r)
}

// ClusterFrom implements clustering.WarmStarter: the first centroid refresh
// reads the given assignment instead of a random partition.
func (u *UCPCLloyd) ClusterFrom(ctx context.Context, ds uncertain.Dataset, k int, init []int, r *rng.RNG) (*clustering.Report, error) {
	if err := clustering.ValidateInit("ucpc-lloyd", init, len(ds), k); err != nil {
		return nil, err
	}
	return u.cluster(ctx, ds, k, init, r)
}

func (u *UCPCLloyd) cluster(ctx context.Context, ds uncertain.Dataset, k int, init []int, r *rng.RNG) (*clustering.Report, error) {
	cfg := clustering.Config{MaxIter: u.MaxIter, Workers: u.Workers, Pruning: u.Pruning, Progress: u.Progress}
	return lloyd(ctx, ds, k, "ucpc-lloyd", u.Name(), cfg, func(mom *uncertain.Moments) ([]int, lloydSteps) {
		var assign []int
		if init != nil {
			// WarmStarter contract: empty init clusters are repaired from
			// r (the same rule as every other warm-startable method)
			// rather than left to the refresh step's farthest-object
			// reseed.
			assign = clustering.RepairEmpty(append([]int(nil), init...), k, r)
		} else {
			assign = clustering.RandomPartition(mom.Len(), k, r)
		}
		cs := newCentroidScores(k, mom.Dims(), mom.Len())
		cs.refresh(mom, assign)
		adds := make([]float64, k)
		return assign, lloydSteps{
			// The refresh diffs the assignment against its previous
			// snapshot, rebuilding only the clusters whose membership
			// changed; it is a no-op on the final (converged) round.
			refresh:   func(assign []int) []int { return cs.refresh(mom, assign) },
			install:   func(eng *Assigner) { cs.install(eng, adds) },
			objective: func([]int) float64 { return cs.objective() },
		}
	})
}

// UKMeans is the fast UK-means of Lee et al. [14]. Because ED(o, c) =
// σ²(o) + ‖µ(o) − c‖² (eq. 8) and σ²(o) is constant across candidate
// centroids, the online phase is Lloyd's K-means over the objects' expected
// values — the v_c = 0 case of the Lloyd loop it shares with UCPCLloyd —
// and the objective it minimizes is J_UK (paper eq. 9). The assignment
// step is a pure Euclidean nearest-center query, the best case for the
// Assigner's bounds; the partition for a given seed is identical for every
// worker count and for pruning on vs. off.
type UKMeans struct {
	// MaxIter caps Lloyd iterations (0 = default 100).
	MaxIter int
	// Workers sizes the assignment worker pool; <= 0 means GOMAXPROCS.
	Workers int
	// Pruning toggles the exact bound-based assignment pruning (default
	// on). Results are identical either way.
	Pruning clustering.PruneMode
	// Progress, when non-nil, observes every Lloyd round with the J_UK
	// objective and the number of objects that changed cluster; both are
	// computed only when the callback is set.
	Progress clustering.ProgressFunc
}

// Name implements clustering.Algorithm.
func (u *UKMeans) Name() string { return "UKM" }

// Cluster runs the fast UK-means from k-means++ seeds.
func (u *UKMeans) Cluster(ctx context.Context, ds uncertain.Dataset, k int, r *rng.RNG) (*clustering.Report, error) {
	return u.cluster(ctx, ds, k, nil, r)
}

// ClusterFrom implements clustering.WarmStarter: the first assignment step
// scores against the centroids (eq. 7) of the given partition instead of
// k-means++ seeds.
func (u *UKMeans) ClusterFrom(ctx context.Context, ds uncertain.Dataset, k int, init []int, r *rng.RNG) (*clustering.Report, error) {
	if err := clustering.ValidateInit("ukmeans", init, len(ds), k); err != nil {
		return nil, err
	}
	return u.cluster(ctx, ds, k, init, r)
}

func (u *UKMeans) cluster(ctx context.Context, ds uncertain.Dataset, k int, init []int, r *rng.RNG) (*clustering.Report, error) {
	cfg := clustering.Config{MaxIter: u.MaxIter, Workers: u.Workers, Pruning: u.Pruning, Progress: u.Progress}
	return lloyd(ctx, ds, k, "ukmeans", u.Name(), cfg, func(mom *uncertain.Moments) ([]int, lloydSteps) {
		// install swaps next into centers, so the objective scores
		// against the centroids the last assignment step used.
		centers, next := make([]vec.Vector, k), make([]vec.Vector, k)
		for c := range next {
			centers[c], next[c] = vec.New(mom.Dims()), vec.New(mom.Dims())
		}
		var assign []int
		if init != nil {
			// Warm start: repair empty clusters first (the WarmStarter
			// contract), then score against the repaired partition's
			// centroids.
			assign = clustering.RepairEmpty(append([]int(nil), init...), k, r)
			clustering.MeansOfMoments(mom, assign, next)
		} else {
			for c, i := range clustering.KMeansPPCenters(ds, k, r) {
				copy(next[c], ds[i].Mean())
			}
			assign = make([]int, mom.Len())
			for i := range assign {
				assign[i] = -1
			}
		}
		return assign, lloydSteps{
			refresh: func(assign []int) []int {
				clustering.MeansOfMoments(mom, assign, next) // eq. 7
				return nil
			},
			install: func(eng *Assigner) {
				centers, next = next, centers
				eng.SetCenterVecs(centers, nil)
			},
			objective: func(assign []int) float64 {
				var j float64
				for i, c := range assign {
					j += mom.ED(i, centers[c])
				}
				return j
			},
		}
	})
}
