package core

import (
	"math"
	"sync/atomic"

	"ucpc/internal/clustering"
	"ucpc/internal/uncertain"
	"ucpc/internal/vec"
)

// This file implements the exact bound-based pruning engine for the
// nearest-centroid assignment hot loops (the relocation-sweep counterpart —
// the settled-object filter — lives in the RelocEngine of reloc.go):
//
//   - Assigner runs every nearest-centroid assignment step (UK-means,
//     UCPC-Lloyd, the UCPC k-means++ initial assignment, serving, the
//     stream's mini-batches). All of those minimize a distance of the form
//
//         D(o, c) = ‖µ(o) − y_c‖² + v_c
//
//     over centroids c, where y_c is a point and v_c an additive
//     per-centroid variance term (Lemma 3 / eq. 8 decompose ÊD and ED this
//     way). Because the µ-part is a genuine Euclidean distance, triangle-
//     inequality bounds on ‖µ(o) − y_c‖ remain *exact*. One Hamerly-style
//     regime is layered on that observation: per-object upper/lower
//     bounds, the lower bound shared across all non-assigned centroids and
//     relaxed by the maximum drift, combined with the global half-gap test
//     and the moving inter-centroid filter. It needs only O(n) state.
//
//     The bounds are seeded by a first pass that scans every centroid for
//     every object, since no bounds exist yet. Callers that assign once
//     and never come back (serving, the stream's per-batch step, the
//     k-means++ initial assignment) build a disabled Assigner instead:
//     bounds only pay off when a later pass reuses them.
//
//   - Every candidate the bounds fail to skip is scored by the direct
//     subtract-square kernel vec.SqDistBlock, the one distance routine on
//     every decision path.
//
// Every skip test subtracts a relative slack (pruneSlack) so that the few-
// ulp rounding of the bound arithmetic can never flip a comparison that the
// exhaustive scan would decide the other way; the slack only *disables*
// borderline skips, so pruned and unpruned runs produce byte-identical
// partitions (asserted by the cross-check tests for every algorithm).
//
// Counter conservation: every (object, centroid) pair of every pass is
// counted exactly once, as either pruned (decided without an O(m) row scan)
// or scanned (an O(m) row evaluation ran), so
// pruned + scanned == n·k·passes on every code path. Whole-object bound
// skips credit every pair they cover.

// pruneSlack is the relative safety margin applied to every bound
// comparison. It is ~10⁷ coarser than double rounding error and ~10⁹ finer
// than any distance contrast that matters, so it costs essentially no
// pruning while making skips robust to the bound arithmetic's own rounding.
const pruneSlack = 1e-9

// Assigner performs exact pruned nearest-centroid assignment over a flat
// moment store for distances D(o,c) = ‖µ(o) − y_c‖² + v_c.
//
// Usage per iteration: SetCenters(...) once, then Assign(...) once. The
// assignment rule is "sticky": an object keeps its current cluster unless
// some other cluster is strictly closer (ties by lower index among strict
// improvements); the first pass, where no assignment is trusted, picks the
// lowest-index argmin. Both the pruned and the unpruned code paths apply
// the same rule, so PruneOff runs reproduce PruneOn runs exactly.
//
// Assign is safe to fan over a worker pool: every object's decision is
// independent, and the counters are order-independent sums.
type Assigner struct {
	mom     *uncertain.Moments
	k, m    int
	enabled bool

	centers []float64 // k*m, row-major current centroid positions
	add     []float64 // k, additive per-centroid terms v_c
	prev    []float64 // k*m, positions at the previous SetCenters
	hasPrev bool

	drift    []float64 // k, per-centroid movement at the last SetCenters
	maxDrift float64
	half     []float64 // k, half distance to the nearest other centroid
	cdist    []float64 // k*k, inter-centroid Euclidean distances

	addMin, addMin2 float64 // smallest and second-smallest v_c
	addMinIdx       int

	upper, lower []float64 // n, per-object Euclidean bounds
	ready        bool      // bounds initialized by a first pass

	passes          int
	pruned, scanned int64

	// Per-pass state threaded to the prebuilt chunk bodies below instead
	// of being captured by fresh closures: creating a capturing closure per
	// Assign call heap-allocates it, and the steady-state sweep loops are
	// gated at zero allocations per pass.
	curAssign []int
	fresh     bool

	exhaustBody func(lo, hi int) bool
	firstBody   func(lo, hi int) bool
	boundedBody func(lo, hi int) bool
}

// NewAssigner builds an assignment engine for k centroids over mom. When
// enabled is false every bound test is bypassed and Assign degenerates to
// the exhaustive scan (used as the exactness reference).
func NewAssigner(mom *uncertain.Moments, k int, enabled bool) *Assigner {
	n, m := mom.Len(), mom.Dims()
	a := &Assigner{
		mom:     mom,
		k:       k,
		m:       m,
		enabled: enabled,
		centers: make([]float64, k*m),
		add:     make([]float64, k),
		prev:    make([]float64, k*m),
	}
	if enabled {
		a.drift = make([]float64, k)
		a.half = make([]float64, k)
		a.cdist = make([]float64, k*k)
		a.upper = make([]float64, n)
		a.lower = make([]float64, n)
	}
	// Bind the chunk bodies once; each bind allocates a method value here
	// so that no Assign call allocates later.
	a.exhaustBody = a.exhaustChunk
	a.firstBody = a.firstChunk
	a.boundedBody = a.boundedChunk
	return a
}

// SetCenters installs the centroid positions (flat k*m row-major) and the
// additive terms v_c (nil means all zero), recording per-centroid drift and
// refreshing the inter-centroid geometry used by the bound tests.
func (a *Assigner) SetCenters(flat, add []float64) {
	a.setCenters(func(dst []float64) { copy(dst, flat) }, add)
}

// SetCenterVecs is SetCenters for per-centroid vector slices.
func (a *Assigner) SetCenterVecs(centers []vec.Vector, add []float64) {
	a.setCenters(func(dst []float64) {
		for c, y := range centers {
			copy(dst[c*a.m:(c+1)*a.m], y)
		}
	}, add)
}

func (a *Assigner) setCenters(fill func(dst []float64), add []float64) {
	a.prev, a.centers = a.centers, a.prev
	fill(a.centers)
	if add == nil {
		for c := range a.add {
			a.add[c] = 0
		}
	} else {
		copy(a.add, add)
	}
	if !a.enabled {
		return
	}
	// Per-centroid drift since the previous positions (upper bounds grow by
	// the own centroid's drift, the shared lower bound shrinks by the
	// largest drift).
	a.maxDrift = 0
	for c := 0; c < a.k; c++ {
		d := 0.0
		if a.hasPrev {
			d = math.Sqrt(rowDist2(a.prev, a.centers, c, a.m))
		}
		a.drift[c] = d
		if d > a.maxDrift {
			a.maxDrift = d
		}
	}
	a.hasPrev = true
	// Inter-centroid distances and half-gaps (O(k²m); k ≪ n).
	for c := 0; c < a.k; c++ {
		a.cdist[c*a.k+c] = 0
		for o := c + 1; o < a.k; o++ {
			dd := math.Sqrt(centerDist2(a.centers, c, o, a.m))
			a.cdist[c*a.k+o] = dd
			a.cdist[o*a.k+c] = dd
		}
	}
	for c := 0; c < a.k; c++ {
		s := math.Inf(1)
		for o := 0; o < a.k; o++ {
			if o != c && a.cdist[c*a.k+o] < s {
				s = a.cdist[c*a.k+o]
			}
		}
		a.half[c] = s / 2
	}
	// Smallest and second-smallest additive term, for min_{c≠a} v_c in O(1).
	a.addMin, a.addMin2, a.addMinIdx = math.Inf(1), math.Inf(1), -1
	for c, v := range a.add {
		switch {
		case v < a.addMin:
			a.addMin2 = a.addMin
			a.addMin, a.addMinIdx = v, c
		case v < a.addMin2:
			a.addMin2 = v
		}
	}
}

// rowDist2 returns the squared Euclidean distance between row c of two flat
// k*m stores.
func rowDist2(x, y []float64, c, m int) float64 {
	return vec.SqDistBlock(x[c*m:(c+1)*m], y[c*m:(c+1)*m])
}

// centerDist2 returns the squared Euclidean distance between rows c and o
// of one flat store.
func centerDist2(x []float64, c, o, m int) float64 {
	return vec.SqDistBlock(x[c*m:(c+1)*m], x[o*m:(o+1)*m])
}

// dist2 returns ‖µ(o_i) − y_c‖². All decision paths — exhaustive, first
// pass, bounded — funnel through the same blocked kernel, so its
// reassociated rounding is identical everywhere and cannot break the
// byte-identity between pruned and unpruned runs.
func (a *Assigner) dist2(i, c int) float64 {
	return vec.SqDistBlock(a.mom.Mu(i), a.centers[c*a.m:(c+1)*a.m])
}

// Invalidate discards object i's bounds after an external reassignment
// (e.g. an empty-cluster reseed moved the object), forcing the next pass to
// evaluate it from scratch.
func (a *Assigner) Invalidate(i int) {
	if a.enabled && a.ready {
		a.upper[i] = math.Inf(1)
		a.lower[i] = 0
	}
}

// Counters returns the cumulative (pruned, scanned) candidate-pair counts.
func (a *Assigner) Counters() (pruned, scanned int64) {
	return atomic.LoadInt64(&a.pruned), atomic.LoadInt64(&a.scanned)
}

// Passes returns the number of Assign passes run since construction, for
// counter-conservation checks: pruned + scanned always equals n·k·Passes().
func (a *Assigner) Passes() int { return a.passes }

// Assign reassigns every object to its nearest centroid under the current
// SetCenters state, fanning over the worker pool, and reports whether any
// assignment changed. assign entries may be -1 (unassigned) only on the
// first pass.
func (a *Assigner) Assign(assign []int, workers int) bool {
	a.passes++
	a.curAssign = assign
	var changed bool
	switch {
	case !a.enabled:
		a.fresh = a.passes == 1
		changed = clustering.ParallelAny(a.mom.Len(), workers, a.exhaustBody)
	case !a.ready:
		changed = clustering.ParallelAny(a.mom.Len(), workers, a.firstBody)
		a.ready = true
	default:
		changed = clustering.ParallelAny(a.mom.Len(), workers, a.boundedBody)
	}
	a.curAssign = nil
	if a.enabled {
		// Drift is consumed by exactly one relaxation; a second Assign
		// without SetCenters must not relax again.
		for c := range a.drift {
			a.drift[c] = 0
		}
		a.maxDrift = 0
	}
	return changed
}

// exhaustChunk is the bound-free reference: evaluate every centroid. It
// applies the same sticky tie rule as the pruned passes so that PruneOff
// reproduces PruneOn bit for bit.
func (a *Assigner) exhaustChunk(lo, hi int) bool {
	assign, fresh := a.curAssign, a.fresh
	ch := false
	var scanned int64
	for i := lo; i < hi; i++ {
		cur := assign[i]
		var best int
		var bestD float64
		if fresh || cur < 0 {
			best, bestD = 0, a.dist2(i, 0)+a.add[0]
			for c := 1; c < a.k; c++ {
				if d := a.dist2(i, c) + a.add[c]; d < bestD {
					best, bestD = c, d
				}
			}
		} else {
			best, bestD = cur, a.dist2(i, cur)+a.add[cur]
			for c := 0; c < a.k; c++ {
				if c == cur {
					continue
				}
				if d := a.dist2(i, c) + a.add[c]; d < bestD {
					best, bestD = c, d
				}
			}
		}
		scanned += int64(a.k)
		if assign[i] != best {
			assign[i] = best
			ch = true
		}
	}
	atomic.AddInt64(&a.scanned, scanned)
	return ch
}

// firstChunk seeds the per-object bounds with a full scan: every centroid
// is evaluated exactly and the lowest-index argmin wins, as in the
// exhaustive first pass. The exact distances become the upper bound and
// the shared lower bound (the nearest other centroid).
func (a *Assigner) firstChunk(lo, hi int) bool {
	assign := a.curAssign
	k := a.k
	ch := false
	for i := lo; i < hi; i++ {
		best, bestD, bestR, lower := 0, 0.0, math.Inf(1), math.Inf(1)
		for c := 0; c < k; c++ {
			r2 := a.dist2(i, c)
			r := math.Sqrt(r2)
			if d := r2 + a.add[c]; c == 0 || d < bestD {
				if bestR < lower {
					lower = bestR
				}
				best, bestD, bestR = c, d, r
			} else if r < lower {
				lower = r
			}
		}
		a.upper[i] = bestR
		a.lower[i] = lower
		if assign[i] != best {
			assign[i] = best
			ch = true
		}
	}
	atomic.AddInt64(&a.scanned, int64(hi-lo)*int64(k))
	return ch
}

// boundedChunk is the steady-state Hamerly-style pass: relax the stored
// per-object bounds by the centroid drift, skip objects whose assigned centroid provably still
// wins, and fall back to a filtered exhaustive scan otherwise.
func (a *Assigner) boundedChunk(lo, hi int) bool {
	assign := a.curAssign
	k := a.k
	ch := false
	var pruned, scanned int64
	for i := lo; i < hi; i++ {
		cur := assign[i]
		u := a.upper[i] + a.drift[cur]
		l := a.lower[i] - a.maxDrift
		if l < 0 {
			l = 0
		}
		a.upper[i], a.lower[i] = u, l
		va := a.add[cur]
		vOther := a.addMin
		if cur == a.addMinIdx {
			vOther = a.addMin2
		}
		// z lower-bounds every other centroid's Euclidean distance:
		// the relaxed lower bound, or the half-gap bound
		// r_c ≥ 2·half[cur] − r_cur ≥ 2·half[cur] − u.
		z := l
		if hg := 2*a.half[cur] - u; hg > z {
			z = hg
		}
		da := u*u + va
		do := z*z + vOther
		if da+pruneSlack*(math.Abs(da)+math.Abs(do)+1) <= do {
			// The whole object is decided without any row scan: all k
			// pairs — the assigned centroid's included — count as pruned.
			pruned += int64(k)
			continue
		}
		// Tighten the upper bound to the exact distance and re-test.
		ra := math.Sqrt(a.dist2(i, cur))
		u = ra
		a.upper[i] = u
		scanned++
		if hg := 2*a.half[cur] - u; hg > z {
			z = hg
		}
		da = u*u + va
		do = z*z + vOther
		if da+pruneSlack*(math.Abs(da)+math.Abs(do)+1) <= do {
			pruned += int64(k - 1)
			continue
		}
		// Filtered exhaustive scan (sticky rule: strict improvement
		// only). The inter-centroid filter lower-bounds r_c by
		// cdist(best, c) − r_best via the triangle inequality.
		best, bestD, bestR := cur, u*u+va, u
		minOther := math.Inf(1)
		for c := 0; c < k; c++ {
			if c == cur {
				continue
			}
			if lb := a.cdist[best*k+c] - bestR; lb > 0 {
				if d := lb*lb + a.add[c]; d-pruneSlack*(math.Abs(d)+math.Abs(bestD)+1) >= bestD {
					if lb < minOther {
						minOther = lb
					}
					pruned++
					continue
				}
			}
			r2 := a.dist2(i, c)
			scanned++
			r := math.Sqrt(r2)
			if d := r2 + a.add[c]; d < bestD {
				if bestR < minOther {
					minOther = bestR
				}
				best, bestD, bestR = c, d, r
			} else if r < minOther {
				minOther = r
			}
		}
		a.upper[i] = bestR
		a.lower[i] = minOther
		if assign[i] != best {
			assign[i] = best
			ch = true
		}
	}
	atomic.AddInt64(&a.pruned, pruned)
	atomic.AddInt64(&a.scanned, scanned)
	return ch
}
