package core

import (
	"math"
	"testing"

	"ucpc/internal/rng"
	"ucpc/internal/uncertain"
	"ucpc/internal/vec"
)

// pruneTestMoments builds a moment store over nGroups well-separated groups
// (the regime where pruning actually fires) with some overlap noise.
func pruneTestMoments(seed uint64, nGroups, perGroup, m int) *uncertain.Moments {
	r := rng.New(seed)
	ds := separableDataset(r, nGroups, perGroup, m)
	return uncertain.MomentsOf(ds)
}

// driftCenters moves every center a small random step, mimicking the
// centroid updates between assignment passes.
func driftCenters(r *rng.RNG, centers []float64, step float64) {
	for j := range centers {
		centers[j] += r.Normal(0, step)
	}
}

// TestAssignerMatchesExhaustive drives a pruned and an unpruned Assigner
// through identical multi-pass center sequences (including additive terms)
// and requires bit-identical assignments and changed flags on every pass,
// with a non-trivial amount of pruning.
func TestAssignerMatchesExhaustive(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		k, m := 5, 3
		mom := pruneTestMoments(seed, k, 40, m)
		n := mom.Len()
		r := rng.New(seed ^ 0xbeef)

		centers := make([]float64, k*m)
		adds := make([]float64, k)
		for c := 0; c < k; c++ {
			for j := 0; j < m; j++ {
				centers[c*m+j] = 10*float64(c) + r.Normal(0, 1)
			}
			adds[c] = r.Float64() * 2
		}

		pruner := NewAssigner(mom, k, true)
		exhaust := NewAssigner(mom, k, false)
		ap := make([]int, n)
		ae := make([]int, n)
		for i := range ap {
			ap[i], ae[i] = -1, -1
		}

		for pass := 0; pass < 8; pass++ {
			pruner.SetCenters(centers, adds)
			exhaust.SetCenters(centers, adds)
			chP := pruner.Assign(ap, 3)
			chE := exhaust.Assign(ae, 1)
			if chP != chE {
				t.Fatalf("seed %d pass %d: changed flags differ (pruned %v, exhaustive %v)", seed, pass, chP, chE)
			}
			for i := range ap {
				if ap[i] != ae[i] {
					t.Fatalf("seed %d pass %d object %d: pruned %d vs exhaustive %d", seed, pass, i, ap[i], ae[i])
				}
			}
			driftCenters(r, centers, 0.2)
			for c := range adds {
				adds[c] = math.Abs(adds[c] + r.Normal(0, 0.05))
			}
		}
		pruned, scanned := pruner.Counters()
		if pruned == 0 {
			t.Errorf("seed %d: no candidates pruned (scanned %d)", seed, scanned)
		}
		if scanned == 0 {
			t.Errorf("seed %d: no candidates scanned", seed)
		}
	}
}

// TestAssignerWorkerInvariance: the pruned engine is deterministic across
// worker-pool sizes, including its counters.
func TestAssignerWorkerInvariance(t *testing.T) {
	k, m := 4, 2
	mom := pruneTestMoments(11, k, 50, m)
	n := mom.Len()
	r := rng.New(77)
	centers := make([]float64, k*m)
	for c := 0; c < k; c++ {
		for j := 0; j < m; j++ {
			centers[c*m+j] = 10*float64(c) + r.Normal(0, 1)
		}
	}

	run := func(workers int) ([]int, int64, int64) {
		eng := NewAssigner(mom, k, true)
		assign := make([]int, n)
		for i := range assign {
			assign[i] = -1
		}
		cs := append([]float64(nil), centers...)
		rr := rng.New(5)
		for pass := 0; pass < 5; pass++ {
			eng.SetCenters(cs, nil)
			eng.Assign(assign, workers)
			driftCenters(rr, cs, 0.1)
		}
		p, s := eng.Counters()
		return assign, p, s
	}

	base, bp, bs := run(1)
	for _, w := range []int{2, 5, 0} {
		got, gp, gs := run(w)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: object %d differs", w, i)
			}
		}
		if gp != bp || gs != bs {
			t.Errorf("workers=%d: counters (%d,%d) vs (%d,%d)", w, gp, gs, bp, bs)
		}
	}
}

// TestAssignerInvalidate: an external reassignment (the Lloyd reseed path)
// followed by Invalidate must not poison later passes.
func TestAssignerInvalidate(t *testing.T) {
	k, m := 3, 2
	mom := pruneTestMoments(21, k, 30, m)
	n := mom.Len()
	centers := make([]float64, k*m)
	for c := 0; c < k; c++ {
		centers[c*m], centers[c*m+1] = 10*float64(c), 10*float64(c)
	}

	pruner := NewAssigner(mom, k, true)
	exhaust := NewAssigner(mom, k, false)
	ap := make([]int, n)
	ae := make([]int, n)
	pruner.SetCenters(centers, nil)
	exhaust.SetCenters(centers, nil)
	pruner.Assign(ap, 2)
	exhaust.Assign(ae, 1)

	// Externally move a few objects (both copies), as a reseed would.
	r := rng.New(9)
	for moves := 0; moves < 5; moves++ {
		i := r.Intn(n)
		c := r.Intn(k)
		ap[i], ae[i] = c, c
		pruner.Invalidate(i)
	}
	driftCenters(r, centers, 0.3)
	pruner.SetCenters(centers, nil)
	exhaust.SetCenters(centers, nil)
	pruner.Assign(ap, 2)
	exhaust.Assign(ae, 1)
	for i := range ap {
		if ap[i] != ae[i] {
			t.Fatalf("object %d: pruned %d vs exhaustive %d after invalidate", i, ap[i], ae[i])
		}
	}
}

// TestRelocBoundHolds verifies the relocation engine's skip bound directly:
// for random clusters and objects, the O(1) reverse-triangle lower bound
// never exceeds the exact Corollary-1 add-score it stands in for — neither
// the engine's own scalar-form score nor the row-form reference (modulo the
// slack, which only weakens the bound).
func TestRelocBoundHolds(t *testing.T) {
	r := rng.New(31)
	ds := separableDataset(r, 4, 25, 3)
	mom := uncertain.MomentsOf(ds)
	n := mom.Len()
	k := 4
	assign := make([]int, n)
	for i := range assign {
		assign[i] = r.Intn(k)
	}

	for _, kind := range []RelocKind{RelocUCPC, RelocMMVar} {
		stats := make([]*Stats, k)
		for c := range stats {
			stats[c] = NewStats(mom.Dims())
		}
		for i := 0; i < n; i++ {
			stats[assign[i]].AddRow(mom.Mu(i), mom.Mu2(i), mom.Sigma2(i))
		}
		e := NewRelocEngine(kind, mom, stats, true)
		for i := 0; i < n; i++ {
			sigma2o := mom.TotalVar(i)
			m2t, mun2 := mom.Mu2Tot(i), mom.MuNorm2(i)
			mu, mu2 := mom.Mu(i), mom.Mu2(i)
			for c := 0; c < k; c++ {
				var rowForm float64
				if kind == RelocUCPC {
					rowForm = stats[c].JIfAddRow(mu, mu2, mom.Sigma2(i)) - stats[c].J()
				} else {
					rowForm = stats[c].JMMIfAddRow(mu, mu2) - stats[c].JMM()
				}
				scalarForm := e.addScore(c, sigma2o, m2t, mun2, vec.DotBlock(mu, stats[c].sum)) - e.jCache[c]
				d := mom.MuNorm(i) - e.cNorm[c]
				glb := e.alpha[c] + e.beta[c]*sigma2o + e.gamma[c]*(d*d)
				for _, exact := range []float64{rowForm, scalarForm} {
					slack := 1e-9 * (math.Abs(glb) + math.Abs(exact) + 1)
					if glb-slack > exact {
						t.Fatalf("kind %d object %d cluster %d: lower bound %g exceeds exact add-score %g", kind, i, c, glb, exact)
					}
				}
				if rel := math.Abs(scalarForm-rowForm) / (math.Abs(rowForm) + 1); rel > 1e-9 {
					t.Fatalf("kind %d object %d cluster %d: scalar add-score %g vs row-form %g (rel %g)", kind, i, c, scalarForm, rowForm, rel)
				}
			}
		}
	}
}

// TestFirstPassBounds: one enabled Assign from −1 leaves bounds that hold
// against the exact distances and a partition identical to the exhaustive
// engine's. The centers are installed twice first so the first pass runs
// after a non-zero drift.
func TestFirstPassBounds(t *testing.T) {
	k, m := 5, 3
	mom := pruneTestMoments(51, k, 40, m)
	n := mom.Len()
	r := rng.New(52)
	centers := make([]float64, k*m)
	adds := make([]float64, k)
	for c := 0; c < k; c++ {
		for j := 0; j < m; j++ {
			centers[c*m+j] = 10*float64(c) + r.Normal(0, 1)
		}
		adds[c] = r.Float64() * 2
	}
	exhaust := NewAssigner(mom, k, false)
	want := make([]int, n)
	for i := range want {
		want[i] = -1
	}
	first := append([]float64(nil), centers...)
	driftCenters(r, centers, 0.5)
	exhaust.SetCenters(centers, adds)
	exhaust.Assign(want, 1)

	a := NewAssigner(mom, k, true)
	a.SetCenters(first, adds)
	a.SetCenters(centers, adds)
	got := make([]int, n)
	for i := range got {
		got[i] = -1
	}
	a.Assign(got, 3)
	if pruned, scanned := a.Counters(); pruned != 0 || scanned != int64(n*k) {
		t.Errorf("counters (%d, %d), want (0, %d)", pruned, scanned, n*k)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			t.Fatalf("object %d: first pass %d vs exhaustive %d", i, got[i], want[i])
		}
		for c := 0; c < k; c++ {
			exact := math.Sqrt(vec.SqDistBlock(mom.Mu(i), centers[c*m:(c+1)*m]))
			if c == got[i] {
				if a.upper[i] != exact {
					t.Fatalf("object %d: upper %v, exact %v", i, a.upper[i], exact)
				}
			} else if a.lower[i] > exact {
				t.Fatalf("object %d: lower %v exceeds centroid %d's %v", i, a.lower[i], c, exact)
			}
		}
	}
}
