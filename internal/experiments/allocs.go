package experiments

import (
	"context"
	"fmt"
	"runtime"

	"ucpc/internal/clustering"
	"ucpc/internal/core"
	"ucpc/internal/mmvar"
	"ucpc/internal/rng"
	"ucpc/internal/ukmeans"
	"ucpc/internal/ukmedoids"
	"ucpc/internal/uncertain"
	"ucpc/internal/vec"
)

// This file measures the steady-state allocation behavior of every sweep
// loop in the benchmark lineup: each algorithm is run to convergence, its
// converged state is loaded into the corresponding engine, and one more
// sweep pass — the pass every further iteration would repeat — is timed
// for heap allocations with GOMAXPROCS(1), the same discipline as
// testing.AllocsPerRun. All engines preallocate their scratch, so the
// bench gate (PruneBenchResult.Check) requires exactly zero.

// steadyAllocs reports the average heap allocations of pass() over several
// repetitions, after warm() has populated caches and bounds.
func steadyAllocs(warm, pass func()) float64 {
	warm()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	const passes = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / passes
}

// statsOf builds per-cluster statistics for an assignment over the store.
func statsOf(mom *uncertain.Moments, assign []int, k int) []*core.Stats {
	stats := make([]*core.Stats, k)
	for c := range stats {
		stats[c] = core.NewStats(mom.Dims())
	}
	for i := 0; i < mom.Len(); i++ {
		stats[assign[i]].AddRow(mom.Mu(i), mom.Mu2(i), mom.Sigma2(i))
	}
	return stats
}

// measureSteadyAllocs returns allocations per steady-state sweep pass for
// every algorithm in the bench lineup, measured on the pruned (default)
// configuration.
func measureSteadyAllocs(ctx context.Context, cfg PruneBenchConfig, ds uncertain.Dataset) (map[string]float64, error) {
	k := cfg.K
	res := make(map[string]float64, 5)
	bg := context.Background()

	converged := func(alg clustering.Algorithm) ([]int, error) {
		rep, err := alg.Cluster(ctx, ds, k, rng.New(cfg.Seed))
		if err != nil {
			return nil, fmt.Errorf("allocs warmup %s: %w", alg.Name(), err)
		}
		return append([]int(nil), rep.Partition.Assign...), nil
	}

	// Relocation sweeps (UCPC, MMV): one RelocEngine.Pass at the fixed
	// point. The warm pass seeds the settled filter's bounds; the measured
	// passes apply no moves, the steady state of a converged local search.
	for _, tc := range []struct {
		name string
		alg  clustering.Algorithm
		kind core.RelocKind
	}{
		{"UCPC", &core.UCPC{Workers: cfg.Workers}, core.RelocUCPC},
		{"MMV", &mmvar.MMVar{}, core.RelocMMVar},
	} {
		assign, err := converged(tc.alg)
		if err != nil {
			return nil, err
		}
		mom := uncertain.MomentsOf(ds)
		eng := core.NewRelocEngine(tc.kind, mom, statsOf(mom, assign, k), true)
		pass := func() {
			if _, err := eng.Pass(bg, assign, 1e-12); err != nil {
				panic(err)
			}
		}
		res[tc.name] = steadyAllocs(pass, pass)
	}

	// Assignment sweeps (UKM, UCPC-Lloyd): SetCenters + Assign against the
	// converged centroids, workers=1 (the measurement configuration; extra
	// workers add goroutine-spawn allocations by design). The warm call
	// runs the full-scan first pass; the measured passes take the
	// steady-state bounded path.
	{
		assign, err := converged(&ukmeans.UKMeans{Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		mom := uncertain.MomentsOf(ds)
		centers := make([]vec.Vector, k)
		for c := range centers {
			centers[c] = vec.New(mom.Dims())
		}
		clustering.MeansOfMoments(mom, assign, centers)
		eng := core.NewAssigner(mom, k, true)
		pass := func() {
			eng.SetCenterVecs(centers, nil)
			eng.Assign(assign, 1)
		}
		res["UKM"] = steadyAllocs(pass, pass)
	}
	{
		assign, err := converged(&core.UCPCLloyd{Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		mom := uncertain.MomentsOf(ds)
		centers := make([]float64, k*mom.Dims())
		adds := make([]float64, k)
		core.UCentroidAssignState(mom, assign, k, centers, adds)
		eng := core.NewAssigner(mom, k, true)
		pass := func() {
			eng.SetCenters(centers, adds)
			eng.Assign(assign, 1)
		}
		res["UCPC-Lloyd"] = steadyAllocs(pass, pass)
	}

	// Medoid sweep (UKmed): assignment pass plus medoid update over the
	// converged partition, both through the preallocated engines.
	{
		alg := &ukmedoids.UKMedoids{Workers: cfg.Workers}
		rep, err := alg.Cluster(ctx, ds, k, rng.New(cfg.Seed))
		if err != nil {
			return nil, fmt.Errorf("allocs warmup UKmed: %w", err)
		}
		assign := append([]int(nil), rep.Partition.Assign...)
		medoids := append([]int(nil), rep.Medoids...)
		lastEval := append([]int(nil), rep.Medoids...)
		members := rep.Partition.Members()
		dm := ukmedoids.MatrixWorkers(ds, cfg.Workers)
		upd := ukmedoids.NewUpdater(dm)
		var ctr ukmedoids.Counters
		pass := func() {
			if _, err := ukmedoids.AssignPass(bg, dm, medoids, lastEval, assign, true, &ctr); err != nil {
				panic(err)
			}
			upd.Update(members, medoids, true, &ctr)
		}
		res["UKmed"] = steadyAllocs(pass, pass)
	}
	return res, nil
}
