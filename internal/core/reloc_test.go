package core

import (
	"context"
	"math"
	"testing"

	"ucpc/internal/clustering"
	"ucpc/internal/rng"
	"ucpc/internal/uncertain"
)

// relocTestCase is one (dataset, k) workload shared by the engine tests:
// a noisy single blob (many borderline candidates, lots of relocations)
// and a separable mixture (fast convergence, settled clusters — the
// regime the settled filter is designed for).
func relocTestCases(seed uint64) []struct {
	name string
	ds   uncertain.Dataset
	k    int
} {
	r := rng.New(seed)
	return []struct {
		name string
		ds   uncertain.Dataset
		k    int
	}{
		{"noisy", uncertain.Dataset(randomCluster(r, 90, 3)), 5},
		{"separable", separableDataset(rng.New(seed^0x5eed), 4, 30, 3), 4},
	}
}

func buildStats(mom *uncertain.Moments, assign []int, k int) []*Stats {
	stats := make([]*Stats, k)
	for c := range stats {
		stats[c] = NewStats(mom.Dims())
	}
	for i := 0; i < mom.Len(); i++ {
		stats[assign[i]].AddRow(mom.Mu(i), mom.Mu2(i), mom.Sigma2(i))
	}
	return stats
}

// referenceRelocate is the pre-engine relocation sweep: exhaustive
// candidate scans scored with the O(m) row-form Corollary-1 closed forms
// (Stats.JIfAddRow / JIfRemoveRow), exactly as the PR2/PR3 inner loop
// evaluated them. It is the ground truth the incremental engine must
// reproduce byte for byte.
func referenceRelocate(kind RelocKind, mom *uncertain.Moments, assign []int, k, maxIter int, minImprove float64) int {
	n := mom.Len()
	stats := buildStats(mom, assign, k)
	jOf := func(c int) float64 {
		if kind == RelocMMVar {
			return stats[c].JMM()
		}
		return stats[c].J()
	}
	jCache := make([]float64, k)
	for c := range stats {
		jCache[c] = jOf(c)
	}
	iterations := 0
	for iterations < maxIter {
		iterations++
		moves := 0
		for i := 0; i < n; i++ {
			co := assign[i]
			if stats[co].Size() == 1 {
				continue
			}
			mu, mu2, sig := mom.Mu(i), mom.Mu2(i), mom.Sigma2(i)
			var jCoRemoved float64
			if kind == RelocMMVar {
				jCoRemoved = stats[co].JMMIfRemoveRow(mu, mu2)
			} else {
				jCoRemoved = stats[co].JIfRemoveRow(mu, mu2, sig)
			}
			deltaRemove := jCoRemoved - jCache[co]
			best, bestDelta := co, 0.0
			for c := 0; c < k; c++ {
				if c == co {
					continue
				}
				var jAdd float64
				if kind == RelocMMVar {
					jAdd = stats[c].JMMIfAddRow(mu, mu2)
				} else {
					jAdd = stats[c].JIfAddRow(mu, mu2, sig)
				}
				if delta := deltaRemove + jAdd - jCache[c]; delta < bestDelta {
					bestDelta, best = delta, c
				}
			}
			if best == co {
				continue
			}
			scale := math.Abs(jCache[co]) + math.Abs(jCache[best]) + 1
			if -bestDelta <= minImprove*scale {
				continue
			}
			stats[co].RemoveRow(mu, mu2, sig)
			stats[best].AddRow(mu, mu2, sig)
			jCache[co], jCache[best] = jOf(co), jOf(best)
			assign[i] = best
			moves++
		}
		if moves == 0 {
			break
		}
	}
	return iterations
}

// engineRelocate runs the incremental engine from the same initial state.
func engineRelocate(kind RelocKind, mom *uncertain.Moments, assign []int, k, maxIter int, minImprove float64, pruning bool) (*RelocEngine, int) {
	eng := NewRelocEngine(kind, mom, buildStats(mom, assign, k), pruning)
	iterations := 0
	for iterations < maxIter {
		iterations++
		moves, err := eng.Pass(context.Background(), assign, minImprove)
		if err != nil {
			panic(err)
		}
		if moves == 0 {
			break
		}
	}
	return eng, iterations
}

// TestRelocEngineMatchesReference is the engine's headline guarantee: for
// both objective kinds, several seeds and both dataset shapes, the
// incremental O(1)-scoring sweep (pruned and unpruned) walks the exact
// relocation trajectory of the row-form exhaustive reference — identical
// iteration counts and byte-identical final partitions.
func TestRelocEngineMatchesReference(t *testing.T) {
	const maxIter, minImprove = 100, 1e-12
	for _, kind := range []RelocKind{RelocUCPC, RelocMMVar} {
		for _, seed := range []uint64{1, 42, 977} {
			for _, tc := range relocTestCases(seed) {
				mom := uncertain.MomentsOf(tc.ds)
				init := clustering.RandomPartition(len(tc.ds), tc.k, rng.New(seed^0xabc))

				ref := append([]int(nil), init...)
				refIters := referenceRelocate(kind, mom, ref, tc.k, maxIter, minImprove)

				for _, pruning := range []bool{true, false} {
					got := append([]int(nil), init...)
					eng, iters := engineRelocate(kind, mom, got, tc.k, maxIter, minImprove, pruning)
					if iters != refIters {
						t.Errorf("kind %d %s seed %d pruning %v: %d iterations vs reference %d",
							kind, tc.name, seed, pruning, iters, refIters)
					}
					for i := range got {
						if got[i] != ref[i] {
							t.Fatalf("kind %d %s seed %d pruning %v: partition diverges at object %d (engine %d, reference %d)",
								kind, tc.name, seed, pruning, i, got[i], ref[i])
						}
					}
					if rel := math.Abs(eng.Objective()-eng.RecomputeObjective()) / (math.Abs(eng.RecomputeObjective()) + 1); rel > 1e-9 {
						t.Errorf("kind %d %s seed %d pruning %v: delta-maintained objective off by %g relative",
							kind, tc.name, seed, pruning, rel)
					}
				}
			}
		}
	}
}

// objectiveOfKind recomputes the engine's global objective from scratch
// (fresh statistics accumulated in dataset order).
func objectiveOfKind(kind RelocKind, mom *uncertain.Moments, assign []int, k int) float64 {
	stats := buildStats(mom, assign, k)
	var v float64
	for _, s := range stats {
		if kind == RelocMMVar {
			v += s.JMM()
		} else {
			v += s.J()
		}
	}
	return v
}

// TestRelocObjectiveDeltaMaintained is the property test of the delta-
// maintained objective: after every pass, the running Σ_C J(C) must match
// a from-scratch recomputation within 1e-9 relative, for both kinds,
// 3 seeds and 2 datasets. (UCPC-Lloyd's counterpart is
// TestLloydObjectiveFromSums in lloyd_test.go.)
func TestRelocObjectiveDeltaMaintained(t *testing.T) {
	for _, kind := range []RelocKind{RelocUCPC, RelocMMVar} {
		for _, seed := range []uint64{1, 42, 977} {
			for _, tc := range relocTestCases(seed) {
				mom := uncertain.MomentsOf(tc.ds)
				assign := clustering.RandomPartition(len(tc.ds), tc.k, rng.New(seed^0xabc))
				eng := NewRelocEngine(kind, mom, buildStats(mom, assign, tc.k), true)
				for pass := 0; pass < 100; pass++ {
					moves, err := eng.Pass(context.Background(), assign, 1e-12)
					if err != nil {
						t.Fatal(err)
					}
					want := objectiveOfKind(kind, mom, assign, tc.k)
					if rel := math.Abs(eng.Objective()-want) / (math.Abs(want) + 1); rel > 1e-9 {
						t.Fatalf("kind %d %s seed %d pass %d: delta-maintained objective %g vs from-scratch %g (rel %g)",
							kind, tc.name, seed, pass, eng.Objective(), want, rel)
					}
					if moves == 0 {
						break
					}
				}
			}
		}
	}
}

// TestRelocEnginePassZeroAllocs gates the zero-allocation contract of the
// relocation sweep: at the converged fixed point (the steady state every
// extra pass repeats), Pass performs no heap allocations, pruned or not.
func TestRelocEnginePassZeroAllocs(t *testing.T) {
	for _, kind := range []RelocKind{RelocUCPC, RelocMMVar} {
		for _, pruning := range []bool{true, false} {
			tc := relocTestCases(11)[1]
			mom := uncertain.MomentsOf(tc.ds)
			assign := clustering.RandomPartition(len(tc.ds), tc.k, rng.New(5))
			eng, _ := engineRelocate(kind, mom, assign, tc.k, 100, 1e-12, pruning)
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := eng.Pass(context.Background(), assign, 1e-12); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("kind %d pruning %v: %g allocs per steady-state pass, want 0", kind, pruning, allocs)
			}
		}
	}
}

// TestAssignerSteadyPassZeroAllocs gates the assignment engine the same
// way: once bounds exist, a SetCenters+Assign round allocates nothing.
func TestAssignerSteadyPassZeroAllocs(t *testing.T) {
	tc := relocTestCases(13)[1]
	mom := uncertain.MomentsOf(tc.ds)
	k, m := tc.k, mom.Dims()
	assign := make([]int, mom.Len())
	for i := range assign {
		assign[i] = -1
	}
	centers := make([]float64, k*m)
	adds := make([]float64, k)
	for c := 0; c < k; c++ {
		copy(centers[c*m:(c+1)*m], mom.Mu(c*7))
		adds[c] = mom.TotalVar(c * 7)
	}
	for _, enabled := range []bool{true, false} {
		eng := NewAssigner(mom, k, enabled)
		eng.SetCenters(centers, adds)
		eng.Assign(assign, 1) // first pass builds the bounds
		allocs := testing.AllocsPerRun(10, func() {
			eng.SetCenters(centers, adds)
			eng.Assign(assign, 1)
		})
		if allocs != 0 {
			t.Errorf("enabled=%v: %g allocs per steady-state assignment round, want 0", enabled, allocs)
		}
	}
}
