package ucpc_test

import (
	"testing"

	"ucpc"
	"ucpc/internal/datasets"
	"ucpc/internal/rng"
	"ucpc/internal/uncgen"
)

// pruningDataset materializes a benchmark-shaped uncertain dataset large
// enough for the pruning engine to have real work.
func pruningDataset(name string, scale float64, seed uint64) ucpc.Dataset {
	spec, err := datasets.BenchmarkByName(name)
	if err != nil {
		panic(err)
	}
	d := datasets.Generate(spec, seed).Scale(scale)
	set := (&uncgen.Generator{Model: uncgen.Normal, Intensity: 0.8}).Assign(d, rng.New(seed^0x9e))
	return set.Objects(d)
}

// duplicateTieDataset builds a dataset of identical-object groups: every
// base object appears `copies` times verbatim, so candidate scores tie
// bit-for-bit whichever order they are evaluated in. Degenerate ties are
// the adversarial input for the pruning engines' sticky/lowest-index tie
// rules: a bound filter that decided a tie differently
// from the exhaustive scan would diverge here immediately.
func duplicateTieDataset(seed uint64, copies int) ucpc.Dataset {
	base := pruningDataset("Iris", 0.4, seed)
	out := make(ucpc.Dataset, 0, len(base)*copies)
	for _, o := range base {
		for c := 0; c < copies; c++ {
			out = append(out, o)
		}
	}
	return out
}

// TestPruningExactness is the engines' headline guarantee: for every
// algorithm wired into a pruning engine — the bound-based Assigner, the
// incremental-statistics RelocEngine (UCPC, MMV, and UCPC-Bisect's 2-way
// sub-runs), and the UK-medoids closed-form medoid filter — and several
// seeds, pruning on vs. off produces byte-identical partitions, identical
// iteration counts, and identical objectives — while actually pruning work.
func TestPruningExactness(t *testing.T) {
	cases := []struct {
		ds   ucpc.Dataset
		name string
		k    int
	}{
		{pruningDataset("Iris", 1, 3), "Iris", 3},
		{pruningDataset("Ecoli", 0.6, 5), "Ecoli", 8},
		{duplicateTieDataset(7, 4), "DupTies", 5},
	}
	algorithms := []string{"UCPC", "UCPC-Lloyd", "UCPC-Bisect", "UKM", "MMV", "UKmed"}
	seeds := []uint64{1, 42, 977}

	for _, tc := range cases {
		for _, alg := range algorithms {
			var prunedTotal int64
			for _, seed := range seeds {
				on, err := ucpc.Cluster(tc.ds, tc.k, ucpc.Options{
					Algorithm: alg, Seed: seed, Pruning: ucpc.PruneOn,
				})
				if err != nil {
					t.Fatalf("%s/%s seed %d (pruning on): %v", tc.name, alg, seed, err)
				}
				off, err := ucpc.Cluster(tc.ds, tc.k, ucpc.Options{
					Algorithm: alg, Seed: seed, Pruning: ucpc.PruneOff,
				})
				if err != nil {
					t.Fatalf("%s/%s seed %d (pruning off): %v", tc.name, alg, seed, err)
				}
				for i := range on.Partition.Assign {
					if on.Partition.Assign[i] != off.Partition.Assign[i] {
						t.Fatalf("%s/%s seed %d: partitions diverge at object %d (pruned %d, unpruned %d)",
							tc.name, alg, seed, i, on.Partition.Assign[i], off.Partition.Assign[i])
					}
				}
				if on.Iterations != off.Iterations {
					t.Errorf("%s/%s seed %d: iterations %d (pruned) vs %d (unpruned)",
						tc.name, alg, seed, on.Iterations, off.Iterations)
				}
				if on.Objective != off.Objective {
					t.Errorf("%s/%s seed %d: objective %v (pruned) vs %v (unpruned)",
						tc.name, alg, seed, on.Objective, off.Objective)
				}
				if off.PrunedCandidates != 0 {
					t.Errorf("%s/%s seed %d: unpruned run reports %d pruned candidates",
						tc.name, alg, seed, off.PrunedCandidates)
				}
				prunedTotal += on.PrunedCandidates
			}
			if prunedTotal == 0 {
				t.Errorf("%s/%s: pruning never fired across %d seeds", tc.name, alg, len(seeds))
			}
		}
	}
}

// TestPruningDefaultOn: the zero Options value runs with the engine active,
// and the report exposes a meaningful hit rate.
func TestPruningDefaultOn(t *testing.T) {
	ds := pruningDataset("Iris", 1, 9)
	rep, err := ucpc.Cluster(ds, 3, ucpc.Options{Algorithm: "UCPC-Lloyd", Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PrunedCandidates == 0 {
		t.Error("default options: no pruning recorded")
	}
	if f := rep.PrunedFraction(); f <= 0 || f >= 1 {
		t.Errorf("pruned fraction %v outside (0,1)", f)
	}
}
