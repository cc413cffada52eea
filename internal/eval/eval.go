// Package eval implements the cluster validity criteria of the paper's
// assessment methodology (§5.1): the external F-measure against a reference
// classification, the internal intra/inter-cluster distances combined into
// the quality score Q = inter − intra, and the uncertainty-gain score
// Θ = F(C″) − F(C′).
package eval

import (
	"fmt"
	"math"
	"sort"

	"ucpc/internal/clustering"
	"ucpc/internal/uncertain"
	"ucpc/internal/vec"
)

// FMeasure computes the paper's external criterion
//
//	F(C, C̃) = |D|⁻¹ Σ_u |C̃_u| · max_v F_uv
//
// where F_uv is the harmonic mean of precision P_uv = |C_v ∩ C̃_u|/|C_v|
// and recall R_uv = |C_v ∩ C̃_u|/|C̃_u|. Noise objects (assignment
// clustering.Noise) are treated as singleton clusters, so density-based
// algorithms are neither rewarded nor excused for discarding objects.
// labels must hold the reference class of every object (values ≥ 0).
func FMeasure(p clustering.Partition, labels []int) float64 {
	n := len(p.Assign)
	if n == 0 || n != len(labels) {
		panic(fmt.Sprintf("eval: %d assignments vs %d labels", n, len(labels)))
	}
	// Remap noise objects to fresh singleton cluster ids.
	assign := make([]int, n)
	next := p.K
	for i, c := range p.Assign {
		if c == clustering.Noise {
			assign[i] = next
			next++
		} else {
			assign[i] = c
		}
	}
	numClusters := next

	// Class and cluster sizes, and the contingency table.
	classSize := map[int]int{}
	for _, l := range labels {
		if l < 0 {
			panic("eval: reference label < 0")
		}
		classSize[l]++
	}
	clusterSize := make([]int, numClusters)
	for _, c := range assign {
		clusterSize[c]++
	}
	joint := map[[2]int]int{} // (class, cluster) -> count
	for i, c := range assign {
		joint[[2]int{labels[i], c}]++
	}

	// Iterate classes in sorted order so the floating-point sum is
	// deterministic (map order would perturb the last bits run to run).
	classes := make([]int, 0, len(classSize))
	for class := range classSize {
		classes = append(classes, class)
	}
	sort.Ints(classes)

	var f float64
	for _, class := range classes {
		csize := classSize[class]
		bestF := 0.0
		for v := 0; v < numClusters; v++ {
			inter := joint[[2]int{class, v}]
			if inter == 0 {
				continue
			}
			precision := float64(inter) / float64(clusterSize[v])
			recall := float64(inter) / float64(csize)
			fuv := 2 * precision * recall / (precision + recall)
			if fuv > bestF {
				bestF = fuv
			}
		}
		f += float64(csize) * bestF
	}
	return f / float64(n)
}

// Theta is the paper's uncertainty-gain score: the F-measure of the
// clustering produced with the uncertainty model (Case 2) minus the
// F-measure of the clustering of the perturbed deterministic data
// (Case 1). Positive values mean modeling uncertainty helped.
func Theta(fCase2, fCase1 float64) float64 { return fCase2 - fCase1 }

// clusterSums holds the per-cluster aggregates that make the pairwise-ÊD
// intra/inter criteria computable in O(n·m + k²·m) instead of O(n²·m):
// ÊD(o,o′) = ‖µ−µ′‖² + σ² + σ′², so pair sums reduce to sums of means,
// squared norms of means, and total variances.
type clusterSums struct {
	size   int
	sumMu  vec.Vector // Σ µ(o)
	sumSq  float64    // Σ ‖µ(o)‖²
	sumVar float64    // Σ σ²(o)
}

func accumulate(ds uncertain.Dataset, p clustering.Partition) []clusterSums {
	m := ds.Dims()
	cs := make([]clusterSums, p.K)
	for c := range cs {
		cs[c].sumMu = vec.New(m)
	}
	for i, o := range ds {
		c := p.Assign[i]
		if c < 0 || c >= p.K {
			continue // noise objects do not join any cluster
		}
		cs[c].size++
		vec.AddInPlace(cs[c].sumMu, o.Mean())
		cs[c].sumSq += vec.SqNorm(o.Mean())
		cs[c].sumVar += o.TotalVar()
	}
	return cs
}

// intraSum returns Σ_{o≠o′∈C} ÊD(o,o′) over ordered pairs.
func (c clusterSums) intraSum() float64 {
	n := float64(c.size)
	return 2*n*c.sumSq - 2*vec.SqNorm(c.sumMu) + 2*(n-1)*c.sumVar
}

// interSum returns Σ_{o∈A} Σ_{o′∈B} ÊD(o,o′).
func interSum(a, b clusterSums) float64 {
	na, nb := float64(a.size), float64(b.size)
	return nb*(a.sumSq+a.sumVar) + na*(b.sumSq+b.sumVar) - 2*vec.Dot(a.sumMu, b.sumMu)
}

// IntraInter computes the paper's internal criteria:
//
//	intra(C) = |C|⁻¹ Σ_C [|C|(|C|−1)]⁻¹ Σ_{o≠o′∈C} ÊD(o,o′)
//	inter(C) = [|C|(|C|−1)]⁻¹ Σ_{C≠C′} [|C||C′|]⁻¹ Σ_{o∈C,o′∈C′} ÊD(o,o′)
//
// both normalized by the dataset's maximum pairwise ÊD so they lie in
// [0,1]. Clusters with fewer than two members contribute 0 to intra
// (their pair set is empty). Noise objects are ignored.
func IntraInter(ds uncertain.Dataset, p clustering.Partition) (intra, inter float64) {
	return intraInter(ds, p, QualityNorm(ds))
}

// QualityNorm is the normalizer IntraInter divides by: ds's maximum
// pairwise ÊD, estimated on a sample of at most 2000 objects. It depends
// on ds alone, so a caller scoring several partitions of one dataset
// computes it once.
func QualityNorm(ds uncertain.Dataset) float64 {
	return uncertain.MaxPairwiseEED(ds, 2000)
}

// intraInter is IntraInter with the normalizer given.
func intraInter(ds uncertain.Dataset, p clustering.Partition, norm float64) (intra, inter float64) {
	cs := accumulate(ds, p)

	nonEmpty := 0
	for _, c := range cs {
		if c.size > 0 {
			nonEmpty++
		}
		if c.size >= 2 {
			pairs := float64(c.size) * float64(c.size-1)
			intra += c.intraSum() / pairs
		}
	}
	if nonEmpty > 0 {
		intra /= float64(nonEmpty)
	}

	pairCount := 0
	for a := 0; a < len(cs); a++ {
		if cs[a].size == 0 {
			continue
		}
		for b := 0; b < len(cs); b++ {
			if b == a || cs[b].size == 0 {
				continue
			}
			inter += interSum(cs[a], cs[b]) / (float64(cs[a].size) * float64(cs[b].size))
			pairCount++
		}
	}
	if pairCount > 0 {
		inter /= float64(pairCount)
	}
	return intra / norm, inter / norm
}

// Quality is the combined internal score Q(C) = inter(C) − intra(C),
// ranging in [−1, 1]; higher is better.
func Quality(ds uncertain.Dataset, p clustering.Partition) float64 {
	return QualityWithNorm(ds, p, QualityNorm(ds))
}

// QualityWithNorm is Quality with the normalizer given; QualityNorm(ds)
// yields Quality's exactly.
func QualityWithNorm(ds uncertain.Dataset, p clustering.Partition, norm float64) float64 {
	intra, inter := intraInter(ds, p, norm)
	return inter - intra
}

// IntraInterBrute computes the same criteria by explicit O(n²) pair sums;
// used by tests to validate the closed-form aggregation.
func IntraInterBrute(ds uncertain.Dataset, p clustering.Partition) (intra, inter float64) {
	norm := uncertain.MaxPairwiseEED(ds, 2000)
	members := p.Members()
	nonEmpty := 0
	for _, ms := range members {
		if len(ms) > 0 {
			nonEmpty++
		}
		if len(ms) < 2 {
			continue
		}
		var sum float64
		for _, i := range ms {
			for _, j := range ms {
				if i != j {
					sum += uncertain.EED(ds[i], ds[j])
				}
			}
		}
		intra += sum / (float64(len(ms)) * float64(len(ms)-1))
	}
	if nonEmpty > 0 {
		intra /= float64(nonEmpty)
	}
	pairCount := 0
	for a := range members {
		if len(members[a]) == 0 {
			continue
		}
		for b := range members {
			if a == b || len(members[b]) == 0 {
				continue
			}
			var sum float64
			for _, i := range members[a] {
				for _, j := range members[b] {
					sum += uncertain.EED(ds[i], ds[j])
				}
			}
			inter += sum / float64(len(members[a])*len(members[b]))
			pairCount++
		}
	}
	if pairCount > 0 {
		inter /= float64(pairCount)
	}
	return intra / norm, inter / norm
}

// Purity returns the fraction of objects whose cluster's majority class
// matches their own class — a secondary external criterion used in tests
// and examples.
func Purity(p clustering.Partition, labels []int) float64 {
	if len(p.Assign) == 0 {
		return 0
	}
	counts := map[int]map[int]int{}
	for i, c := range p.Assign {
		if counts[c] == nil {
			counts[c] = map[int]int{}
		}
		counts[c][labels[i]]++
	}
	correct := 0
	for _, byClass := range counts {
		best := 0
		for _, cnt := range byClass {
			if cnt > best {
				best = cnt
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(p.Assign))
}

// AdjustedRandIndex computes the ARI between a partition and reference
// labels (noise objects become singletons). Secondary external criterion.
func AdjustedRandIndex(p clustering.Partition, labels []int) float64 {
	n := len(p.Assign)
	assign := make([]int, n)
	next := p.K
	for i, c := range p.Assign {
		if c == clustering.Noise {
			assign[i] = next
			next++
		} else {
			assign[i] = c
		}
	}
	joint := map[[2]int]float64{}
	rowSum := map[int]float64{}
	colSum := map[int]float64{}
	for i := 0; i < n; i++ {
		joint[[2]int{assign[i], labels[i]}]++
		rowSum[assign[i]]++
		colSum[labels[i]]++
	}
	choose2 := func(x float64) float64 { return x * (x - 1) / 2 }
	sumJoint := sortedSum2(joint, choose2)
	sumRow := sortedSum(rowSum, choose2)
	sumCol := sortedSum(colSum, choose2)
	total := choose2(float64(n))
	expected := sumRow * sumCol / total
	maxIdx := (sumRow + sumCol) / 2
	if math.Abs(maxIdx-expected) < 1e-15 {
		return 0
	}
	return (sumJoint - expected) / (maxIdx - expected)
}

// sortedSum folds f over the map values in sorted-key order, keeping
// floating-point results deterministic across runs.
func sortedSum(m map[int]float64, f func(float64) float64) float64 {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var s float64
	for _, k := range keys {
		s += f(m[k])
	}
	return s
}

// sortedSum2 is sortedSum for pair-keyed maps.
func sortedSum2(m map[[2]int]float64, f func(float64) float64) float64 {
	keys := make([][2]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	var s float64
	for _, k := range keys {
		s += f(m[k])
	}
	return s
}
