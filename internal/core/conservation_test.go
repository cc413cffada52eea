package core

import (
	"context"
	"testing"

	"ucpc/internal/rng"
	"ucpc/internal/uncertain"
)

// TestAssignerCounterConservation asserts the Assigner's accounting
// invariant on every code path: each (object, centroid) pair of each pass
// is counted exactly once, as pruned or scanned, so
//
//	pruned + scanned == n·k·Passes()
//
// regardless of the bound regime (the full-scan first pass, the Hamerly
// bounds, the bound-free exhaustive reference).
// Whole-object skips must credit every pair they cover for the identity to
// hold.
func TestAssignerCounterConservation(t *testing.T) {
	k, m := 5, 3
	mom := pruneTestMoments(3, k, 40, m)
	n := mom.Len()

	cases := []struct {
		name    string
		enabled bool
	}{
		{"exhaustive", false},
		{"hamerly-direct", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAssigner(mom, k, tc.enabled)
			r := rng.New(17)
			centers := make([]float64, k*m)
			for c := 0; c < k; c++ {
				for j := 0; j < m; j++ {
					centers[c*m+j] = 10*float64(c) + r.Normal(0, 1)
				}
			}
			assign := make([]int, n)
			for i := range assign {
				assign[i] = -1
			}
			for pass := 0; pass < 7; pass++ {
				a.SetCenters(centers, nil)
				a.Assign(assign, 3)
				driftCenters(r, centers, 0.15)
			}
			pruned, scanned := a.Counters()
			want := int64(n) * int64(k) * int64(a.Passes())
			if pruned+scanned != want {
				t.Fatalf("pruned %d + scanned %d = %d, want n·k·passes = %d",
					pruned, scanned, pruned+scanned, want)
			}
			if tc.enabled && pruned == 0 {
				t.Error("pruning-enabled regime never pruned")
			}
			if !tc.enabled && pruned != 0 {
				t.Errorf("exhaustive reference pruned %d pairs", pruned)
			}
		})
	}
}

// TestRelocCounterConservation asserts the relocation engine's accounting
// invariant: each pass offers every eligible object k−1 relocation
// candidates (its own cluster is not a candidate), and each candidate is
// counted exactly once as pruned or scanned, so across a whole run
//
//	pruned + scanned == eligible·(k−1) summed over passes.
//
// Objects whose cluster has a single member are guarded out of the sweep
// entirely (Algorithm 1 keeps k clusters) and contribute to neither
// counter; the engine counts those visits separately (Guarded), which
// closes the identity exactly even when a cluster transiently shrinks to
// one member mid-run.
func TestRelocCounterConservation(t *testing.T) {
	r := rng.New(13)
	ds := separableDataset(r, 4, 30, 3)
	mom := uncertain.MomentsOf(ds)
	n, m, k := mom.Len(), mom.Dims(), 4

	for _, kind := range []RelocKind{RelocUCPC, RelocMMVar} {
		for _, pruning := range []bool{true, false} {
			assign := make([]int, n)
			rr := rng.New(29)
			for i := range assign {
				assign[i] = rr.Intn(k)
			}
			stats := make([]*Stats, k)
			for c := range stats {
				stats[c] = NewStats(m)
			}
			AccumulateStats(mom, assign, stats)
			for c := range stats {
				if stats[c].Size() < 2 {
					t.Fatalf("kind %d: initial cluster %d has size %d", kind, c, stats[c].Size())
				}
			}
			e := NewRelocEngine(kind, mom, stats, pruning)
			passes := 0
			for {
				moves, err := e.Pass(context.Background(), assign, 1e-12)
				if err != nil {
					t.Fatal(err)
				}
				passes++
				if moves == 0 {
					break
				}
			}
			pruned, scanned := e.Counters()
			want := int64(n) * int64(k-1) * int64(passes)
			got := pruned + scanned + e.Guarded()*int64(k-1)
			if got != want {
				t.Fatalf("kind %d pruning %v: pruned %d + scanned %d + guarded %d·(k−1) = %d, want n·(k−1)·passes = %d",
					kind, pruning, pruned, scanned, e.Guarded(), got, want)
			}
			if pruning && pruned == 0 {
				t.Errorf("kind %d: pruning run never pruned", kind)
			}
			if !pruning && pruned != 0 {
				t.Errorf("kind %d: unpruned run pruned %d candidates", kind, pruned)
			}
		}
	}
}
