package core

import (
	"context"
	"math"

	"ucpc/internal/uncertain"
	"ucpc/internal/vec"
)

// This file implements the incremental-statistics relocation engine behind
// UCPC (Algorithm 1) and MMVar. The key observation is that the Theorem-3 /
// Corollary-1 objective of a cluster depends on its per-dimension sums only
// through three scalars,
//
//	Ψ = Σ_j Ψ^{(j)}   (total variance sum)
//	Φ = Σ_j Φ^{(j)}   (total second-moment sum)
//	‖S‖² = Σ_j (S^{(j)})²   (squared norm of the mean sum)
//
// because J(C) = Ψ/|C| + Φ − ‖S‖²/|C| (and J_UK, J_MM likewise). The add
// and remove scores then reduce to
//
//	J(C ∪ {o}) = (Ψ + σ²(o))/(|C|+1) + Φ + φ(o)
//	             − (‖S‖² + 2·µ(o)·S + ‖µ(o)‖²)/(|C|+1)
//	J(C \ {o}) = (Ψ − σ²(o))/(|C|−1) + Φ − φ(o)
//	             − (‖S‖² − 2·µ(o)·S + ‖µ(o)‖²)/(|C|−1)
//
// with φ(o) = Σ_j (µ₂)_j(o). Every term except the dot product µ(o)·S is a
// precomputed per-object scalar (Moments.TotalVar/Mu2Tot/MuNorm2) or a
// per-cluster scalar maintained by the engine — so scoring a candidate
// cluster costs O(1) once µ(o)·S is known.
//
// A scanned object gets all k dots from one vec.DotRows sweep over sumFlat,
// a packed row-major k×m copy of the cluster sum vectors kept in sync by
// every refresh. The matrix is L1-resident at bench scale (k=16, m=42:
// 5.4 KB) and its rows are walked sequentially instead of pointer-chasing
// k per-cluster slices.
//
// The engine maintains the global objective Σ_C J(C) by applying each
// accepted move's delta instead of re-summing per pass; tests bound the
// drift of this running value against a from-scratch recomputation at 1e-9
// relative after every pass.
//
// All scratch (scalar snapshots, the dot row, the bound tables) is
// allocated once in NewRelocEngine; Pass performs no heap allocations, so
// steady-state sweeps are allocation-free (gated by the bench harness).

// RelocKind selects the objective a RelocEngine scores and bounds.
type RelocKind int

const (
	// RelocUCPC scores ΔJ = J(C ∪ {o}) − J(C) (Theorem 3 / Corollary 1).
	RelocUCPC RelocKind = iota
	// RelocMMVar scores ΔJ_MM = J_MM(C ∪ {o}) − J_MM(C) (Proposition 2).
	RelocMMVar
)

// settledPairsMax caps the settled filter's per-(object, cluster) tables
// at 1<<26 entries (768 MB of bounds + stamps). Above it the filter is off
// and every object is scanned, rather than changing the process's memory
// footprint class; the partition is identical either way.
const settledPairsMax = 1 << 26

// pruneSlackRel is pruneSlack rescaled for the threshold form of the
// settled test: for cand ≥ 0 (the only regime where a skip can happen),
// cand − pruneSlack·(cand + R) ≥ 0 ⟺ cand ≥ pruneSlackRel·R.
const pruneSlackRel = pruneSlack / (1 - pruneSlack)

// RelocEngine runs the sequential relocation sweeps of UCPC and MMVar over
// a flat moment store with incremental O(1) candidate scoring.
//
// With pruning enabled, a settled-object filter keeps the sweep off the
// O(n·k·m) path. Every candidate delta decomposes exactly as
// deltaRemove + α_c + β_c·σ²(o) + γ_c·r² with r = ‖µ(o) − mean_c‖
// (König–Huygens on the Corollary-1 scores). After a scan that finds no
// improving move, the engine stores a lower bound on r for every
// candidate (free: the scan's dots give the true distances) and an upper
// bound on the object's distance to its own mean. Each bound decays by
// exactly the cumulative mean movement of its OWN cluster (triangle
// inequality, tracked by driftTot in absolute-decay form — no per-pair
// timestamps). A later pass then re-proves "no candidate improves" in O(k)
// dot-free scalar work against the CURRENT per-cluster constants: only
// objects near a cluster boundary, or whose nearby clusters actually
// moved, pay for a rescan. In the convergent tail almost every object is
// settled, so a pass costs O(n·k) cheap scalar tests instead of O(n·k·m).
//
// Per-candidate score bounds interleaved with the scan itself were
// measured out of this engine: at m ≈ 42 an O(1) bound test costs about
// half of one dot product, so even a high hit rate returns at most tens of
// percent — the pruning dead zone. The settled filter sidesteps it by
// skipping whole objects (dots, scoring, and the removeScore at once).
//
// vec.DotRows computes each row with the same DotBlock kernel the filter's
// escalation uses, so every dot of an object has the same bits on every
// path, and the settled filter only disables work whose outcome is already
// decided: a skip proves (with slack absorbing the bound arithmetic's
// rounding) that the exhaustive sweep would keep the object in place too.
// Pruned and unpruned runs therefore produce byte-identical partitions.
//
// A RelocEngine drives a single sequential sweep; it is not safe for
// concurrent use.
type RelocEngine struct {
	kind    RelocKind
	mom     *uncertain.Moments
	stats   []*Stats
	n, m, k int
	// pruning is true when the settled filter runs: requested by the
	// caller and n·k within settledPairsMax.
	pruning bool

	// Per-cluster scalar snapshot, recomputed in O(m) by refresh for the
	// (at most two) clusters an accepted move touches.
	ver    []uint32  // version counter; bumps on every refresh
	psiTot []float64 // Ψ
	phiTot []float64 // Φ
	sumSq  []float64 // ‖S‖²
	jCache []float64 // J (RelocUCPC) resp. J_MM (RelocMMVar)

	// sumFlat packs the k cluster sum vectors into one row-major k×m
	// matrix (kept in sync by refresh) so an object's dot row is one
	// vec.DotRows sweep into rowScratch.
	sumFlat    []float64 // k*m
	rowScratch []float64 // k

	// Add-score decomposition constants (candidate delta = deltaRemove +
	// α_c + β_c·σ²(o) + γ_c·r², with r = ‖µ(o) − mean_c‖), refreshed
	// alongside the snapshot; the settled filter evaluates its bounds
	// against these current values. invSize caches 1/|C| for the
	// König–Huygens distance identity; cNorm is the mean's norm.
	cNorm   []float64 // ‖S/|C|‖
	invSize []float64 // 1/|C| (0 for an empty cluster)
	alpha   []float64
	beta    []float64
	gamma   []float64
	jMag    []float64 // |J(C)|, anchors the filter's relative slack

	// chkSlack[c] is the cluster-only part of the settled test's slack
	// threshold, precomputed per refresh so the per-candidate test is pure
	// fused arithmetic: the test "cand − ps·(|cand| + R) ≥ 0" with
	// R = jMag[c] + |J(C_co)| + γ_c·(‖µ(o)‖² + ‖mean_c‖²) + 1 passes only
	// when cand ≥ 0, where it is algebraically "cand ≥ ps/(1−ps)·R" — so
	// the filter tests cand against chkSlack[c] plus two per-object terms
	// and needs no Abs and no re-derivation of R per pass.
	chkSlack []float64

	// Remove-side bracket constants: deltaRemove = −[αR + σ²(o)·sR + γR·r²]
	// with r the object's distance to its own cluster's FULL mean (the
	// leave-one-out mean folds into the constants). Zeroed at |C| < 2,
	// where the guard in Pass skips the object anyway.
	alphaR []float64 // k
	sigmaR []float64 // k
	gammaR []float64 // k

	// Settled-object filter state. driftTot[c] accumulates the cluster
	// mean's total movement across refreshes (meanPrev holds the mean at
	// the last refresh); a distance bound written as bound+driftTot[c]
	// reads back as its exactly-decayed value bound' − driftTot[c] with no
	// per-entry timestamps. lbR[i*k+c] stores the lower bound on
	// ‖µ(o_i) − mean_c‖ in that form (−Inf = no bound, decays to the
	// trivial r ≥ 0); rCo[i] and drCo[i] store the upper bound on the
	// object's distance to its own mean and driftTot[co] at write time.
	// settled[i] records that object i's last full scan found no improving
	// move; the flag survives until the object itself relocates — the
	// stored bounds stay valid (they decay, they never break) no matter
	// how the clusters change, because the filter re-evaluates them
	// against the current constants every pass.
	settled []bool
	lbR     []float64 // n*k
	rCo     []float64 // n
	drCo    []float64 // n
	// chkVer[i*k+c] stamps the cluster version under which candidate c's
	// settled verdict for object i was last proven (by bound, by exact
	// delta, or by the storing scan itself). While ver[c] and ver[co] are
	// both unchanged, every input of the verdict — the stored bound, the
	// cluster constants, and the remove-side bracket — is bit-identical to
	// the proven case, so the verdict stands without re-deriving it: the
	// whole-object settled test collapses to one row of uint32 compares
	// (a single cache line at k = 16). A bump of ver[co] invalidates the
	// whole row (the remove side feeds every test); a bump of ver[c] alone
	// re-tests just that candidate.
	chkVer   []uint32  // n*k
	meanPrev []float64 // k*m, cluster means at the last refresh
	driftTot []float64 // k, cumulative mean path length
	built    bool      // construction refreshes must not count as drift

	totalJ float64 // Σ_C J(C), maintained by applied move deltas

	pruned, scanned int64
	// guarded counts object-visits skipped by the size-1 guard (relocating
	// the last member would empty the cluster). Each such visit withholds
	// its k−1 candidates from both counters, so the conservation identity
	// is pruned + scanned + guarded·(k−1) == n·(k−1)·passes.
	guarded int64
}

// NewRelocEngine builds the engine over mom for the clusters described by
// stats (which must reflect the caller's current assignment and stay owned
// by the engine afterwards). With pruning false no settled test ever fires
// and every candidate is scored (the exhaustive-reference behavior).
func NewRelocEngine(kind RelocKind, mom *uncertain.Moments, stats []*Stats, pruning bool) *RelocEngine {
	n, m, k := mom.Len(), mom.Dims(), len(stats)
	e := &RelocEngine{
		kind:       kind,
		mom:        mom,
		stats:      stats,
		n:          n,
		m:          m,
		k:          k,
		pruning:    pruning && n <= settledPairsMax/k,
		ver:        make([]uint32, k),
		psiTot:     make([]float64, k),
		phiTot:     make([]float64, k),
		sumSq:      make([]float64, k),
		jCache:     make([]float64, k),
		sumFlat:    make([]float64, k*m),
		rowScratch: make([]float64, k),
		cNorm:      make([]float64, k),
		invSize:    make([]float64, k),
		alpha:      make([]float64, k),
		beta:       make([]float64, k),
		gamma:      make([]float64, k),
		jMag:       make([]float64, k),
	}
	if e.pruning {
		e.chkSlack = make([]float64, k)
		e.alphaR = make([]float64, k)
		e.sigmaR = make([]float64, k)
		e.gammaR = make([]float64, k)
		e.settled = make([]bool, n)
		e.chkVer = make([]uint32, n*k)
		// The float64 state comes out of one slab: a single zeroed
		// allocation faults fewer fresh pages than four, and construction
		// is on the measured online path of every Cluster call.
		f := make([]float64, n*k+2*n+k*m+k)
		e.lbR, f = f[:n*k:n*k], f[n*k:]
		e.rCo, f = f[:n:n], f[n:]
		e.drCo, f = f[:n:n], f[n:]
		e.meanPrev, e.driftTot = f[:k*m:k*m], f[k*m:]
	}
	for c := range stats {
		e.refresh(c)
	}
	e.built = true
	for c := range stats {
		e.totalJ += e.jCache[c]
	}
	return e
}

// refresh recomputes cluster c's scalar snapshot (and bound constants) from
// its per-dimension statistics in O(m), syncs its sumFlat row, and bumps
// the cluster's version, invalidating every settled verdict against it.
func (e *RelocEngine) refresh(c int) {
	s := e.stats[c]
	// One fused sweep over the three statistics arrays; each accumulator
	// still sums in ascending j, so the totals are bit-identical to three
	// separate loops.
	sumArr := s.sum
	psiArr, phiArr := s.psi[:len(sumArr)], s.phi[:len(sumArr)]
	flat := e.sumFlat[c*e.m : (c+1)*e.m : (c+1)*e.m]
	var psi, phi, ss float64
	for j, v := range sumArr {
		psi += psiArr[j]
		phi += phiArr[j]
		ss += v * v
		flat[j] = v
	}
	e.psiTot[c], e.phiTot[c], e.sumSq[c] = psi, phi, ss
	e.ver[c]++

	if s.size == 0 {
		// Relocation never empties a cluster; keep the snapshot inert. An
		// α of −Inf makes every settled test against this cluster fail, so
		// objects rescan (and score the empty candidate exactly) until it
		// gains members.
		e.jCache[c] = 0
		e.cNorm[c], e.invSize[c] = 0, 0
		e.alpha[c], e.beta[c], e.gamma[c], e.jMag[c] = math.Inf(-1), 0, 0, 0
		if e.pruning {
			e.chkSlack[c] = 0
		}
		return
	}
	n := float64(s.size)
	inv := 1 / n
	juk := phi - ss*inv
	switch e.kind {
	case RelocMMVar:
		e.jCache[c] = juk * inv
	default: // RelocUCPC
		e.jCache[c] = psi*inv + juk
	}
	if !e.pruning {
		return
	}
	// One more sweep: accumulate the mean's movement (so the distance
	// bounds decay by exactly the drift since they were written — triangle
	// inequality) and snapshot the new mean. Construction-time refreshes
	// seed the snapshot without counting drift — there is no earlier bound
	// to decay.
	row := e.meanPrev[c*e.m : (c+1)*e.m : (c+1)*e.m]
	var d2 float64
	for j, v := range sumArr {
		mj := v * inv
		dv := mj - row[j]
		d2 += dv * dv
		row[j] = mj
	}
	if e.built {
		e.driftTot[c] += math.Sqrt(d2)
	}
	e.cNorm[c] = math.Sqrt(ss) * inv
	e.invSize[c] = inv
	switch e.kind {
	case RelocMMVar:
		e.alpha[c] = -juk / (n * (n + 1))
		e.beta[c] = 1 / (n + 1)
		e.gamma[c] = n / ((n + 1) * (n + 1))
	default: // RelocUCPC
		e.alpha[c] = psi/(n+1) - psi/n
		e.beta[c] = 1/(n+1) + 1
		e.gamma[c] = n / (n + 1)
	}
	e.jMag[c] = math.Abs(e.jCache[c])
	e.chkSlack[c] = pruneSlackRel * (e.jMag[c] + e.gamma[c]*e.cNorm[c]*e.cNorm[c] + 1)
	// Remove-side bracket constants (deltaRemove = −[αR + σ²(o)·sR + γR·r²],
	// r to the full mean). Undefined at size 1 — zero them; the size-1
	// guard in Pass skips such a cluster's only member anyway, and by the
	// time it regrows these are refreshed.
	if s.size >= 2 {
		nm1 := n - 1
		switch e.kind {
		case RelocMMVar:
			e.alphaR[c] = -juk / (n * nm1)
			e.sigmaR[c] = 1 / nm1
			e.gammaR[c] = n / (nm1 * nm1)
		default: // RelocUCPC
			e.alphaR[c] = -psi / (n * nm1)
			e.sigmaR[c] = 1/nm1 + 1
			e.gammaR[c] = n / nm1
		}
	} else {
		e.alphaR[c], e.sigmaR[c], e.gammaR[c] = 0, 0, 0
	}
}

// addScore returns J(C_c ∪ {o}) (resp. J_MM) in O(1) from the scalar
// snapshot and the object scalars.
func (e *RelocEngine) addScore(c int, sig2o, m2t, mun2, dot float64) float64 {
	inv := 1 / (float64(e.stats[c].size) + 1)
	uk := (e.phiTot[c] + m2t) - (e.sumSq[c]+2*dot+mun2)*inv
	if e.kind == RelocMMVar {
		return uk * inv
	}
	return (e.psiTot[c]+sig2o)*inv + uk
}

// removeScore returns J(C_c \ {o}) (resp. J_MM) in O(1); the caller
// guarantees |C_c| ≥ 2.
func (e *RelocEngine) removeScore(c int, sig2o, m2t, mun2, dot float64) float64 {
	inv := 1 / (float64(e.stats[c].size) - 1)
	uk := (e.phiTot[c] - m2t) - (e.sumSq[c]-2*dot+mun2)*inv
	if e.kind == RelocMMVar {
		return uk * inv
	}
	return (e.psiTot[c]-sig2o)*inv + uk
}

// Pass runs one full relocation sweep (Algorithm 1, Lines 5-15): each
// object is tentatively moved to the candidate cluster with the most
// negative total delta, moves are applied immediately (the paper's
// sequential local search), and the running objective is updated by each
// applied delta. It returns the number of relocations applied. minImprove
// guards termination: a move is applied only when its improvement exceeds
// minImprove relative to the magnitude of the clusters involved.
//
// With pruning on, a settled object (previous scan found no improving
// move) first re-proves that verdict in O(k) dot-free work: for every
// candidate, the exactly-decayed distance lower bound feeds the
// α + β·σ²(o) + γ·r² decomposition against the cluster's CURRENT
// constants, and the object's own remove gain is bounded through its
// decayed distance upper bound. Only when some candidate's bound dips
// below zero (minus slack) does the object rescan. A rescanning object —
// and every object of an unpruned sweep — fills its dot row with one
// vec.DotRows sweep over sumFlat, scores every candidate exactly in O(1),
// and (pruned) re-stores its bounds: the scan's dots give every true
// distance for free via König–Huygens. Engine fields are hoisted into
// locals because Go will not inline multi-argument method calls into a
// loop this hot.
//
// The filter never decides a comparison: a settled skip proves no
// candidate improves at all (so the exhaustive sweep would keep the object
// in place too, for any minImprove ≥ 0), with a relative slack absorbing
// the bound arithmetic's rounding. Pruned and unpruned runs therefore
// produce byte-identical partitions.
func (e *RelocEngine) Pass(ctx context.Context, assign []int, minImprove float64) (int, error) {
	k := e.k
	moves := 0
	mom := e.mom
	m := e.m
	pruning := e.pruning
	ver, sumFlat, row := e.ver, e.sumFlat, e.rowScratch
	jCache := e.jCache
	lbR, driftTot := e.lbR, e.driftTot
	alpha, beta, gamma, jMag, cNorm, invSize := e.alpha, e.beta, e.gamma, e.jMag, e.cNorm, e.invSize
	chkSlack, chkVer := e.chkSlack, e.chkVer
	var prunedN, scannedN int64
	for i := 0; i < e.n; i++ {
		if i%ctxCheckStride == 0 && i > 0 {
			if err := ctx.Err(); err != nil {
				e.pruned += prunedN
				e.scanned += scannedN
				return moves, err
			}
		}
		co := assign[i]
		if e.stats[co].size == 1 {
			// Relocating the only member would empty the cluster;
			// Algorithm 1 keeps k clusters, so skip. Any stored bounds
			// keep decaying and stay valid for when the cluster regrows.
			e.guarded++
			continue
		}
		sig2o := mom.TotalVar(i)
		mun2 := mom.MuNorm2(i)
		m2t := mom.Mu2Tot(i)
		base := i * k
		if pruning && e.settled[i] {
			// Settled-object filter. Fast path: a verdict stamped under the
			// current versions of both the candidate and the object's own
			// cluster is still proven — nothing it depended on changed — so
			// an object whose whole stamp row is current skips in one
			// cache line of uint32 compares, no float arithmetic at all.
			chkRow := chkVer[base : base+k : base+k]
			remStale := chkRow[co] != ver[co]
			anyStale := remStale
			if !anyStale {
				for c := 0; c < k; c++ {
					if chkRow[c] != ver[c] {
						anyStale = true
						break
					}
				}
			}
			if !anyStale {
				prunedN += int64(k - 1)
				continue
			}
			// Slow path: lower-bound each stale candidate's delta with
			// current constants and exactly-decayed distance bounds. (A
			// bump of ver[co] re-tests every candidate: the remove side
			// feeds each verdict.) The test escalates instead of giving up:
			// a first bound failure buys one fresh dot on the object's OWN
			// cluster (replacing the decayed remove-side upper bound with
			// the exact remove gain, and re-anchoring the stored distance),
			// a still-failing candidate buys its own fresh dot and an exact
			// delta — bit-identical to the one a full scan would compute,
			// so the comparison against zero needs no slack — and reseeds
			// its pair bound. Only a candidate whose exact delta is
			// negative forces the full scan below. Verdicts from looser
			// remove-side bounds stay sound after a tightening, so stamps
			// never need rewinding.
			rUB := e.rCo[i] + (driftTot[co] - e.drCo[i])
			rem := e.alphaR[co] + sig2o*e.sigmaR[co] + e.gammaR[co]*rUB*rUB
			slackCo := pruneSlackRel * jMag[co]
			slackMu := pruneSlackRel * mun2
			exact := false
			settledOK := true
			for c := 0; c < k; c++ {
				if c == co {
					continue
				}
				if !remStale && chkRow[c] == ver[c] {
					continue
				}
				lb := lbR[base+c] - driftTot[c]
				if lb < 0 {
					lb = 0
				}
				cand := alpha[c] + beta[c]*sig2o + gamma[c]*(lb*lb) - rem
				if cand >= chkSlack[c]+slackCo+gamma[c]*slackMu {
					chkRow[c] = ver[c]
					continue
				}
				if !exact {
					// Tighten the remove side once, then retry this
					// candidate with the exact rem.
					exact = true
					dotCoF := vec.DotBlock(mom.Mu(i), sumFlat[co*m:(co+1)*m])
					rem = -(e.removeScore(co, sig2o, m2t, mun2, dotCoF) - jCache[co])
					mqCo := cNorm[co] * cNorm[co]
					r2Co := mun2 - 2*dotCoF*invSize[co] + mqCo + pruneSlack*(mun2+mqCo+1)
					if r2Co > 0 {
						e.rCo[i] = math.Sqrt(r2Co)
					} else {
						e.rCo[i] = 0
					}
					e.drCo[i] = driftTot[co]
					c--
					continue
				}
				dotC := vec.DotBlock(mom.Mu(i), sumFlat[c*m:(c+1)*m])
				if invSize[c] > 0 {
					mq := cNorm[c] * cNorm[c]
					r2 := mun2 - 2*dotC*invSize[c] + mq - pruneSlack*(mun2+mq+1)
					lbv := driftTot[c]
					if r2 > 0 {
						lbv += math.Sqrt(r2)
					}
					lbR[base+c] = lbv
				}
				delta := -rem + e.addScore(c, sig2o, m2t, mun2, dotC) - jCache[c]
				if delta < 0 {
					settledOK = false
					break
				}
				chkRow[c] = ver[c]
			}
			if settledOK {
				chkRow[co] = ver[co]
				prunedN += int64(k - 1)
				continue
			}
		}
		vec.DotRows(row, mom.Mu(i), sumFlat, m)
		dotCo := row[co]
		jCoRemoved := e.removeScore(co, sig2o, m2t, mun2, dotCo)
		deltaRemove := jCoRemoved - jCache[co]

		best := co
		bestDelta := 0.0
		for c := 0; c < k; c++ {
			if c == co {
				continue
			}
			scannedN++
			delta := deltaRemove + e.addScore(c, sig2o, m2t, mun2, row[c]) - jCache[c]
			if delta < bestDelta {
				bestDelta = delta
				best = c
			}
		}
		if best != co {
			// Require a real improvement, relative to the magnitude of the
			// involved terms, to guarantee termination (Proposition 4).
			scale := math.Abs(jCache[co]) + math.Abs(jCache[best]) + 1
			if -bestDelta > minImprove*scale {
				// Apply the relocation: O(m) statistics updates
				// (Corollary 1) and O(m) snapshot refreshes for the two
				// touched clusters only.
				mu, mu2, sig := mom.Mu(i), mom.Mu2(i), mom.Sigma2(i)
				oldJ := jCache[co] + jCache[best]
				e.stats[co].RemoveRow(mu, mu2, sig)
				e.stats[best].AddRow(mu, mu2, sig)
				e.refresh(co)
				e.refresh(best)
				e.totalJ += jCache[co] + jCache[best] - oldJ
				assign[i] = best
				if pruning {
					e.settled[i] = false // new cluster: bounds must re-seed
				}
				moves++
				continue
			}
		}
		// No improving move: the scan's fresh dots give every candidate's
		// true distance for free (König–Huygens r² = ‖µ‖² − 2·µ·S/|C| +
		// ‖mean‖²), so store the settled bounds — lower bounds (deflated
		// by the slack margin) for candidates, an upper bound (inflated)
		// for the object's own cluster — in absolute-decay form.
		if pruning {
			e.settled[i] = true
			chkVer[base+co] = ver[co]
			mqCo := cNorm[co] * cNorm[co]
			r2Co := mun2 - 2*dotCo*invSize[co] + mqCo + pruneSlack*(mun2+mqCo+1)
			if r2Co > 0 {
				e.rCo[i] = math.Sqrt(r2Co)
			} else {
				e.rCo[i] = 0
			}
			e.drCo[i] = driftTot[co]
			for c := 0; c < k; c++ {
				if c == co {
					continue
				}
				if invSize[c] == 0 {
					// Empty candidate: no mean to measure against. −Inf
					// decays to the trivial bound r ≥ 0, which stays
					// sound whatever the cluster becomes.
					lbR[base+c] = math.Inf(-1)
					continue
				}
				mq := cNorm[c] * cNorm[c]
				r2 := mun2 - 2*row[c]*invSize[c] + mq - pruneSlack*(mun2+mq+1)
				lb := driftTot[c]
				if r2 > 0 {
					lb += math.Sqrt(r2)
				}
				lbR[base+c] = lb
				chkVer[base+c] = ver[c]
			}
		}
	}
	e.pruned += prunedN
	e.scanned += scannedN
	return moves, nil
}

// Objective returns the delta-maintained global objective Σ_C J(C)
// (resp. Σ_C J_MM(C)).
func (e *RelocEngine) Objective() float64 { return e.totalJ }

// RecomputeObjective re-derives the global objective from the per-cluster
// statistics (O(k·m)); tests use it to bound the drift of the
// delta-maintained value.
func (e *RelocEngine) RecomputeObjective() float64 {
	var v float64
	for c := range e.stats {
		switch e.kind {
		case RelocMMVar:
			v += e.stats[c].JMM()
		default:
			v += e.stats[c].J()
		}
	}
	return v
}

// Size returns |C_c|.
func (e *RelocEngine) Size(c int) int { return e.stats[c].size }

// Counters returns the cumulative (pruned, scanned) candidate counts.
func (e *RelocEngine) Counters() (pruned, scanned int64) {
	return e.pruned, e.scanned
}

// Guarded returns the cumulative number of object-visits skipped by the
// size-1 guard. Together with Counters it closes the per-pass accounting:
// pruned + scanned + Guarded()·(k−1) == n·(k−1)·passes.
func (e *RelocEngine) Guarded() int64 { return e.guarded }
