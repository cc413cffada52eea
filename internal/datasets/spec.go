// Package datasets provides the data substrate for the experiments: seeded
// synthetic generators shaped like the paper's benchmark datasets (Table
// 1(a)), a probe-level microarray generator standing in for the real
// Neuroblastoma/Leukaemia collections (Table 1(b)), a KDD-Cup-'99-like
// stream for the scalability study, and CSV I/O.
//
// Substitution note: the module is offline, so the UCI and
// Broad-Institute files are unavailable; each generator reproduces the
// published object count, dimensionality, class count, and the qualitative
// difficulty knobs (class overlap and imbalance) that drive the relative
// ranking of the clustering algorithms.
package datasets

import (
	"fmt"
	"math"

	"ucpc/internal/rng"
	"ucpc/internal/vec"
)

// Spec describes one benchmark-shaped synthetic dataset.
type Spec struct {
	// Name matches the paper's Table 1(a).
	Name string
	// N, Dims, Classes are the published object/attribute/class counts.
	N, Dims, Classes int
	// Separation scales the distance between class centers relative to
	// the within-class spread; lower values mean more overlap (harder).
	Separation float64
	// Imbalance in [0,1) skews the class-size distribution: 0 is
	// balanced, values near 1 are strongly Zipf-like.
	Imbalance float64
}

// Validate checks that the spec describes a generatable dataset: at least
// one class, at least as many objects as classes, at least one dimension,
// a finite non-negative Separation of sane magnitude (huge separations
// overflow the class-center random walk into non-finite coordinates), and
// an Imbalance in [0, 1). Generate requires a valid spec; fuzzed or
// user-assembled specs should be validated first. Failures wrap
// ErrMalformed.
func (s Spec) Validate() error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("datasets: spec %q: "+format+": %w", append(append([]any{s.Name}, args...), ErrMalformed)...)
	}
	switch {
	case s.Classes < 1:
		return bad("%d classes", s.Classes)
	case s.N < s.Classes:
		return bad("%d objects for %d classes", s.N, s.Classes)
	case s.Dims < 1:
		return bad("%d dims", s.Dims)
	case math.IsNaN(s.Separation) || s.Separation < 0 || s.Separation > 1e6:
		return bad("separation %v outside [0, 1e6]", s.Separation)
	case math.IsNaN(s.Imbalance) || s.Imbalance < 0 || s.Imbalance >= 1:
		return bad("imbalance %v outside [0, 1)", s.Imbalance)
	}
	return nil
}

// Benchmarks returns the specs mirroring Table 1(a) (KDDCup99 excluded;
// see KDDSpec). Separation/imbalance are tuned per dataset to reflect the
// qualitative difficulty visible in the paper's Table 2 (e.g. Iris is easy,
// Glass/Yeast are hard and skewed).
func Benchmarks() []Spec {
	return []Spec{
		{Name: "Iris", N: 150, Dims: 4, Classes: 3, Separation: 3.0, Imbalance: 0},
		{Name: "Wine", N: 178, Dims: 13, Classes: 3, Separation: 2.2, Imbalance: 0.1},
		{Name: "Glass", N: 214, Dims: 10, Classes: 6, Separation: 1.4, Imbalance: 0.45},
		{Name: "Ecoli", N: 327, Dims: 7, Classes: 5, Separation: 1.8, Imbalance: 0.4},
		{Name: "Yeast", N: 1484, Dims: 8, Classes: 10, Separation: 1.2, Imbalance: 0.5},
		{Name: "Image", N: 2310, Dims: 19, Classes: 7, Separation: 2.0, Imbalance: 0},
		{Name: "Abalone", N: 4124, Dims: 7, Classes: 17, Separation: 1.1, Imbalance: 0.35},
		{Name: "Letter", N: 7648, Dims: 16, Classes: 10, Separation: 1.6, Imbalance: 0.05},
	}
}

// BenchmarkByName returns the spec with the given name.
func BenchmarkByName(name string) (Spec, error) {
	for _, s := range Benchmarks() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("datasets: unknown benchmark %q", name)
}

// Deterministic is a labeled deterministic dataset: the input of the
// uncertainty-generation pipeline (paper §5.1).
type Deterministic struct {
	Name   string
	Points []vec.Vector
	Labels []int
	// Classes is the number of reference classes.
	Classes int
}

// Scale returns a down-sampled copy keeping ceil(frac·N) points while
// preserving every class (stratified head sampling). frac > 1 is clamped.
func (d *Deterministic) Scale(frac float64) *Deterministic {
	if frac >= 1 {
		return d
	}
	if frac <= 0 {
		panic("datasets: non-positive scale fraction")
	}
	keep := int(float64(len(d.Points)) * frac)
	if keep < d.Classes {
		keep = d.Classes
	}
	// First pass: one representative per class, in input order.
	out := &Deterministic{Name: d.Name, Classes: d.Classes}
	seen := map[int]bool{}
	chosen := make([]bool, len(d.Points))
	for i, l := range d.Labels {
		if !seen[l] {
			seen[l] = true
			chosen[i] = true
		}
	}
	// Second pass: fill up with an even stride so all regions are covered.
	need := keep - len(seen)
	if need > 0 {
		stride := float64(len(d.Points)) / float64(need)
		for t := 0; t < need; t++ {
			i := int(float64(t) * stride)
			for i < len(chosen) && chosen[i] {
				i++
			}
			if i < len(chosen) {
				chosen[i] = true
			}
		}
	}
	for i := range d.Points {
		if chosen[i] {
			out.Points = append(out.Points, d.Points[i])
			out.Labels = append(out.Labels, d.Labels[i])
		}
	}
	return out
}

// Dims returns the attribute count.
func (d *Deterministic) Dims() int {
	if len(d.Points) == 0 {
		return 0
	}
	return len(d.Points[0])
}

// PerDimStd returns the per-dimension standard deviation of the points,
// used to scale uncertainty parameters relative to the data spread.
func (d *Deterministic) PerDimStd() vec.Vector {
	m := d.Dims()
	n := float64(len(d.Points))
	mean := vec.New(m)
	for _, p := range d.Points {
		vec.AddInPlace(mean, p)
	}
	vec.ScaleInPlace(mean, 1/n)
	std := vec.New(m)
	for _, p := range d.Points {
		for j := 0; j < m; j++ {
			dlt := p[j] - mean[j]
			std[j] += dlt * dlt
		}
	}
	for j := 0; j < m; j++ {
		std[j] = math.Sqrt(std[j] / n)
		if std[j] == 0 {
			std[j] = 1
		}
	}
	return std
}

// Generate builds the deterministic dataset for a spec: a Gaussian mixture
// with Spec.Classes components in Spec.Dims dimensions, class centers
// placed by a seeded random walk at Spec.Separation times the within-class
// spread, and class sizes skewed by Spec.Imbalance.
func Generate(spec Spec, seed uint64) *Deterministic {
	r := rng.New(seed).Split(hashName(spec.Name))
	centers := make([]vec.Vector, spec.Classes)
	spreads := make([]vec.Vector, spec.Classes)
	for c := range centers {
		centers[c] = make(vec.Vector, spec.Dims)
		spreads[c] = make(vec.Vector, spec.Dims)
		for j := 0; j < spec.Dims; j++ {
			centers[c][j] = r.Normal(0, spec.Separation)
			spreads[c][j] = 0.5 + r.Float64() // within-class σ in [0.5, 1.5)
		}
	}
	sizes := classSizes(spec.N, spec.Classes, spec.Imbalance, r)

	out := &Deterministic{Name: spec.Name, Classes: spec.Classes}
	for c := 0; c < spec.Classes; c++ {
		for i := 0; i < sizes[c]; i++ {
			p := make(vec.Vector, spec.Dims)
			for j := 0; j < spec.Dims; j++ {
				p[j] = centers[c][j] + r.Normal(0, spreads[c][j])
			}
			out.Points = append(out.Points, p)
			out.Labels = append(out.Labels, c)
		}
	}
	return out
}

// classSizes splits n into k parts with a Zipf-like skew controlled by
// imbalance in [0,1); every class receives at least one object.
func classSizes(n, k int, imbalance float64, r *rng.RNG) []int {
	weights := make([]float64, k)
	var total float64
	for c := range weights {
		// weight ∝ 1/(c+1)^s with s grown from imbalance; jitter breaks ties.
		s := 2 * imbalance
		weights[c] = (1 + 0.1*r.Float64()) / math.Pow(float64(c+1), s)
		total += weights[c]
	}
	sizes := make([]int, k)
	assigned := 0
	for c := range sizes {
		sizes[c] = int(float64(n) * weights[c] / total)
		if sizes[c] < 1 {
			sizes[c] = 1
		}
		assigned += sizes[c]
	}
	// Distribute the rounding remainder (or trim overflow) on class 0.
	sizes[0] += n - assigned
	if sizes[0] < 1 {
		// The min-1 clamps overshot n (k close to n with heavy skew): pay
		// the deficit back from the largest classes, never taking any class
		// below 1. Σ sizes = n + deficit and every class holds ≥ 1 except
		// class 0 (reset to 1 here), so n ≥ k guarantees the loop drains
		// the deficit. A single unbounded borrow used to leave a *negative*
		// class size here, silently generating more than n objects (found
		// by FuzzSpecGenerate).
		deficit := 1 - sizes[0]
		sizes[0] = 1
		for deficit > 0 {
			largest := 0
			for c := range sizes {
				if sizes[c] > sizes[largest] {
					largest = c
				}
			}
			take := sizes[largest] - 1
			if take <= 0 {
				panic("datasets: classSizes cannot satisfy n >= k")
			}
			if take > deficit {
				take = deficit
			}
			sizes[largest] -= take
			deficit -= take
		}
	}
	return sizes
}

func hashName(name string) uint64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}
