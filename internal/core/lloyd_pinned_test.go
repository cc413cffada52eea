package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"ucpc/internal/clustering"
	"ucpc/internal/dist"
	"ucpc/internal/rng"
	"ucpc/internal/uncertain"
)

// pinnedEvent is one Progress event with its objective as a bit pattern.
type pinnedEvent struct {
	iter, moves int
	obj         uint64
}

// hashAssign is FNV-64a over the decimal assignment, comma-separated.
func hashAssign(assign []int) uint64 {
	h := fnv.New64a()
	for _, c := range assign {
		fmt.Fprintf(h, "%d,", c)
	}
	return h.Sum64()
}

// TestLloydPinnedReports pins the full Report and Progress stream of both
// Lloyd-driver algorithms — UKM (v_c = 0) and UCPC-Lloyd (v_c = σ²(C̄_c))
// — to values recorded before the two algorithms shared one loop: the
// partition hash, iteration count, convergence flag, objective bits and
// candidate counters, plus every Progress event's iteration, moves and
// objective bits. The cases cover a cold start, a warm start from a fixed
// point (converges in round 1), MaxIter 1, and a coincident dataset whose
// assignment step empties clusters every round (UKM refreshes them to the
// global mean; UCPC-Lloyd reseeds four objects per round). Every case is
// also run without Progress and must produce the same Report.
func TestLloydPinnedReports(t *testing.T) {
	ds := uncertain.Dataset(randomCluster(rng.New(1207), 160, 3))
	coincident := make(uncertain.Dataset, 12)
	for i := range coincident {
		coincident[i] = uncertain.NewObject(i, []dist.Distribution{
			dist.NewUniformAround(1, 0.01),
			dist.NewUniformAround(-2, 0.01),
		})
	}
	ctx := context.Background()
	algs := []struct {
		name string
		mk   func(maxIter int, p clustering.ProgressFunc) clustering.WarmStarter
	}{
		{"ukm", func(maxIter int, p clustering.ProgressFunc) clustering.WarmStarter {
			return &UKMeans{MaxIter: maxIter, Workers: 2, Progress: p}
		}},
		{"ucpc-lloyd", func(maxIter int, p clustering.ProgressFunc) clustering.WarmStarter {
			return &UCPCLloyd{MaxIter: maxIter, Workers: 2, Progress: p}
		}},
	}
	want := map[string]struct {
		hash            uint64
		iters           int
		converged       bool
		obj             uint64
		pruned, scanned int64
		events          []pinnedEvent
	}{
		"ukm/cold": {0x128b5f5ab519d296, 8, true, 0x409e28235b7c1a5c, 3197, 1923, []pinnedEvent{
			{1, 160, 0x40a46620b1dd2eb2}, {2, 26, 0x40a0a00518f59239}, {3, 15, 0x409f5743abb0e9fe},
			{4, 7, 0x409ea23298867991}, {5, 5, 0x409e6a7e42354547}, {6, 3, 0x409e3d375375c34d},
			{7, 2, 0x409e2d0ec3b30770}, {8, 0, 0x409e28235b7c1a5c}}},
		"ukm/warm-fixed-point": {0x128b5f5ab519d296, 1, true, 0x409e28235b7c1a5c, 0, 640, []pinnedEvent{
			{1, 0, 0x409e28235b7c1a5c}}},
		"ukm/maxiter-1": {0x4282d6b5ab2cbdfc, 1, false, 0x40a1bd13f087de5f, 0, 640, []pinnedEvent{
			{1, 160, 0x40a46620b1dd2eb2}}},
		"ukm/empty-cluster": {0x614cf245a0aa95a5, 2, true, 0x3f2a36e2eb1c4241, 0, 120, []pinnedEvent{
			{1, 12, 0x3f2a36e2eb1c4241}, {2, 0, 0x3f2a36e2eb1c4241}}},
		"ucpc-lloyd/cold": {0x3672681f4b9b1c9e, 9, true, 0x409db8778a43d2b7, 3065, 2695, []pinnedEvent{
			{1, 100, 0x40a20758642551a1}, {2, 17, 0x40a0db50cff46adc}, {3, 16, 0x40a034a2354f35da},
			{4, 8, 0x409f5c88970825fd}, {5, 10, 0x409eb9014bdf06a9}, {6, 7, 0x409e34668b67abb5},
			{7, 6, 0x409de2dac95bc1f2}, {8, 3, 0x409db8778a43d2b7}, {9, 0, 0x409db8778a43d2b7}}},
		"ucpc-lloyd/warm-fixed-point": {0x3672681f4b9b1c9e, 1, true, 0x409db8778a43d2b7, 0, 640, []pinnedEvent{
			{1, 0, 0x409db8778a43d2b7}}},
		"ucpc-lloyd/maxiter-1": {0x4325bc5e22382b75, 1, false, 0x40a20758642551a1, 0, 640, []pinnedEvent{
			{1, 100, 0x40a20758642551a1}}},
		"ucpc-lloyd/empty-cluster": {0x8db9eb653ff2aa79, 6, false, 0x3f32918b668a8000, 200, 160, []pinnedEvent{
			{1, 8, 0x3f32918b668a8000}, {2, 4, 0x3f32918b668a8000}, {3, 4, 0x3f32918b668a8000},
			{4, 4, 0x3f32918b668a8000}, {5, 4, 0x3f32918b668a8000}, {6, 4, 0x3f32918b668a8000}}},
	}
	for _, alg := range algs {
		cold, err := alg.mk(0, nil).Cluster(ctx, ds, 4, rng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		cases := []struct {
			name string
			run  func(p clustering.ProgressFunc) (*clustering.Report, error)
		}{
			{"cold", func(p clustering.ProgressFunc) (*clustering.Report, error) {
				return alg.mk(0, p).Cluster(ctx, ds, 4, rng.New(5))
			}},
			{"warm-fixed-point", func(p clustering.ProgressFunc) (*clustering.Report, error) {
				return alg.mk(0, p).ClusterFrom(ctx, ds, 4, cold.Partition.Assign, rng.New(6))
			}},
			{"maxiter-1", func(p clustering.ProgressFunc) (*clustering.Report, error) {
				return alg.mk(1, p).Cluster(ctx, ds, 4, rng.New(5))
			}},
			{"empty-cluster", func(p clustering.ProgressFunc) (*clustering.Report, error) {
				return alg.mk(6, p).Cluster(ctx, coincident, 5, rng.New(3))
			}},
		}
		for _, tc := range cases {
			name := alg.name + "/" + tc.name
			t.Run(name, func(t *testing.T) {
				w := want[name]
				var events []clustering.ProgressEvent
				rep, err := tc.run(func(e clustering.ProgressEvent) { events = append(events, e) })
				if err != nil {
					t.Fatal(err)
				}
				quiet, err := tc.run(nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range []*clustering.Report{rep, quiet} {
					if h := hashAssign(r.Partition.Assign); h != w.hash {
						t.Errorf("partition hash %#x, want %#x", h, w.hash)
					}
					if r.Iterations != w.iters || r.Converged != w.converged {
						t.Errorf("iterations %d converged %v, want %d %v", r.Iterations, r.Converged, w.iters, w.converged)
					}
					if b := math.Float64bits(r.Objective); b != w.obj {
						t.Errorf("objective bits %#x (%v), want %#x", b, r.Objective, w.obj)
					}
					if r.PrunedCandidates != w.pruned || r.ScannedCandidates != w.scanned {
						t.Errorf("pruned/scanned %d/%d, want %d/%d", r.PrunedCandidates, r.ScannedCandidates, w.pruned, w.scanned)
					}
				}
				if len(events) != len(w.events) {
					t.Fatalf("%d progress events, want %d", len(events), len(w.events))
				}
				for i, e := range events {
					got := pinnedEvent{e.Iteration, e.Moves, math.Float64bits(e.Objective)}
					if got != w.events[i] {
						t.Errorf("event %d = %+v, want %+v", i, got, w.events[i])
					}
				}
			})
		}
	}
}
