package core

import (
	"context"
	"testing"

	"ucpc/internal/clustering"
	"ucpc/internal/rng"
	"ucpc/internal/uncertain"
)

// Ablation benchmarks for two design choices: the O(m) incremental scoring
// of Corollary 1 versus from-scratch recomputation, and the relocation
// search of Algorithm 1 versus the batch (Lloyd) variant.

func benchCluster(n, m int) []*uncertain.Object {
	return randomCluster(rng.New(42), n, m)
}

// BenchmarkJIncremental measures Corollary 1's O(m) JIfAdd.
func BenchmarkJIncremental(b *testing.B) {
	objs := benchCluster(256, 16)
	s := NewStatsOf(objs[:255])
	o := objs[255]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.JIfAdd(o)
	}
}

// BenchmarkJRecompute measures the naive O(|C|·m) alternative that
// Corollary 1 avoids: rebuilding the statistics to score one candidate.
func BenchmarkJRecompute(b *testing.B) {
	objs := benchCluster(256, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewStatsOf(objs).J()
	}
}

// BenchmarkUCPCRelocation measures Algorithm 1 end to end.
func BenchmarkUCPCRelocation(b *testing.B) {
	ds := uncertain.Dataset(benchCluster(512, 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&UCPC{}).Cluster(context.Background(), ds, 6, rng.New(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUCPCLloyd measures the batch ablation on the same workload.
func BenchmarkUCPCLloyd(b *testing.B) {
	ds := uncertain.Dataset(benchCluster(512, 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&UCPCLloyd{}).Cluster(context.Background(), ds, 6, rng.New(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUCPCLloydParallel measures the batch variant with 4 workers.
func BenchmarkUCPCLloydParallel(b *testing.B) {
	ds := uncertain.Dataset(benchCluster(512, 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&UCPCLloyd{Workers: 4}).Cluster(context.Background(), ds, 6, rng.New(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAssignStep isolates one UCPC-Lloyd assignment pass (the
// embarrassingly parallel inner step) at several pool sizes over the flat
// moment store: n=20000, m=8, k=8. Pruning is off so the benchmark
// measures the raw exhaustive scan; BenchmarkPrunedAssign (root package)
// measures the bound-based engine against this baseline.
func benchAssignStep(b *testing.B, workers int) {
	b.Helper()
	ds := uncertain.Dataset(benchCluster(20000, 8))
	mom := uncertain.MomentsOf(ds)
	assign := clustering.RandomPartition(len(ds), 8, rng.New(3))
	cs := newCentroidScores(8, 8, len(ds))
	cs.refresh(mom, assign)
	eng := NewAssigner(mom, 8, false)
	adds := make([]float64, 8)
	cs.install(eng, adds)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = eng.Assign(assign, workers)
	}
}

func BenchmarkAssignStepSerial(b *testing.B)   { benchAssignStep(b, 1) }
func BenchmarkAssignStepParallel(b *testing.B) { benchAssignStep(b, 0) }

// BenchmarkUCentroidRealization measures one exact draw of X_C̄.
func BenchmarkUCentroidRealization(b *testing.B) {
	u := NewUCentroid(benchCluster(64, 8))
	r := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = u.SampleRealization(r)
	}
}
