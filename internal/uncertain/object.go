// Package uncertain implements the multivariate uncertain-object model of
// the paper (§2.1): an object o = (R, f) with an m-dimensional box domain
// region R and a pdf f over R. Objects carry per-dimension independent
// marginal distributions (exactly the representation produced by the
// paper's uncertainty generator, §5.1, and by probe-level microarray
// models), from which the expected value, second-order moment, and variance
// vectors (eq. 2–6) are available in closed form.
//
// An optional joint sample cloud supports the sample-based algorithms
// (basic UK-means, FDBSCAN, FOPTICS) and Monte Carlo verification of the
// closed forms.
package uncertain

import (
	"errors"
	"fmt"

	"ucpc/internal/dist"
	"ucpc/internal/rng"
	"ucpc/internal/vec"
)

// ErrEmptyDataset marks a dataset with no objects. Dataset.Validate (and
// through it every clustering entry point) wraps this sentinel so callers
// can test errors.Is(err, ErrEmptyDataset).
var ErrEmptyDataset = errors.New("empty dataset")

// ErrDimMismatch marks objects of differing dimensionality, either within
// one dataset or between a fitted model and the objects scored against it.
var ErrDimMismatch = errors.New("dimensionality mismatch")

// Object is a multivariate uncertain object. Construct with NewObject or
// FromPoint; the moment caches make Objects immutable after construction
// (the sample cloud is the only mutable, lazily-filled field).
type Object struct {
	// ID identifies the object within its dataset.
	ID int
	// Label is an optional reference class for external validation;
	// -1 when unknown.
	Label int

	marginals []dist.Distribution
	region    vec.Box

	mu, mu2, sigma2 vec.Vector
	totalVar        float64

	samples []vec.Vector // optional cached realizations
	joint   bool         // samples form an empirical joint pdf (FromSamples)
}

// NewObject builds an uncertain object from per-dimension marginals.
// The domain region is the product of the marginal supports.
func NewObject(id int, marginals []dist.Distribution) *Object {
	if len(marginals) == 0 {
		panic("uncertain: object needs at least one dimension")
	}
	m := len(marginals)
	o := &Object{
		ID:        id,
		Label:     -1,
		marginals: marginals,
		mu:        make(vec.Vector, m),
		mu2:       make(vec.Vector, m),
		sigma2:    make(vec.Vector, m),
	}
	lo := make(vec.Vector, m)
	hi := make(vec.Vector, m)
	for j, d := range marginals {
		o.mu[j], o.mu2[j], o.sigma2[j] = dist.Moments(d)
		o.totalVar += o.sigma2[j]
		lo[j], hi[j] = d.Support()
	}
	o.region = vec.Box{Lo: lo, Hi: hi}
	return o
}

// FromPoint builds a deterministic object (all marginals are point masses).
// Deterministic objects make the uncertain algorithms collapse to their
// classical counterparts, which the evaluation pipeline uses for Case 1
// (clustering the perturbed deterministic dataset D′).
func FromPoint(id int, x vec.Vector) *Object {
	ms := make([]dist.Distribution, len(x))
	for j, v := range x {
		ms[j] = dist.NewPointMass(v)
	}
	return NewObject(id, ms)
}

// WithLabel sets the reference class label and returns the object.
func (o *Object) WithLabel(label int) *Object {
	o.Label = label
	return o
}

// Dims returns the dimensionality m.
func (o *Object) Dims() int { return len(o.marginals) }

// Marginal returns the j-th marginal distribution.
func (o *Object) Marginal(j int) dist.Distribution { return o.marginals[j] }

// Region returns the domain region R of the object.
func (o *Object) Region() vec.Box { return o.region }

// Mean returns the expected-value vector µ(o) (eq. 2). The returned slice
// is shared; callers must not modify it.
func (o *Object) Mean() vec.Vector { return o.mu }

// SecondMoment returns the second-order moment vector µ₂(o) (eq. 2).
func (o *Object) SecondMoment() vec.Vector { return o.mu2 }

// VarVector returns the variance vector σ²(o) (eq. 3).
func (o *Object) VarVector() vec.Vector { return o.sigma2 }

// TotalVar returns the "global" scalar variance σ²(o) = Σ_j (σ²)_j (eq. 6).
func (o *Object) TotalVar() float64 { return o.totalVar }

// PDF evaluates the joint density f(x) = Π_j f_j(x_j) at x.
func (o *Object) PDF(x vec.Vector) float64 {
	if len(x) != o.Dims() {
		panic(fmt.Sprintf("uncertain: pdf point dim %d vs object dim %d", len(x), o.Dims()))
	}
	p := 1.0
	for j, d := range o.marginals {
		p *= d.PDF(x[j])
		if p == 0 {
			return 0
		}
	}
	return p
}

// Sample draws one realization x ∈ R of the object.
func (o *Object) Sample(r *rng.RNG) vec.Vector {
	x := make(vec.Vector, o.Dims())
	for j, d := range o.marginals {
		x[j] = d.Sample(r)
	}
	return x
}

// EnsureSamples fills (or refreshes, if n differs) the cached sample cloud
// with n realizations drawn from r, and returns the cloud. The cloud is the
// "set of statistical samples drawn from the pdf" used by the basic
// UK-means (§2.2) and the density-based algorithms. For empirical joint
// objects (FromSamples) the refreshed cloud is a bootstrap resample of the
// stored rows, preserving cross-dimension correlations.
func (o *Object) EnsureSamples(r *rng.RNG, n int) []vec.Vector {
	if len(o.samples) == n {
		return o.samples
	}
	fresh := make([]vec.Vector, n)
	for i := range fresh {
		if o.joint && len(o.samples) > 0 {
			fresh[i] = vec.Clone(o.samples[r.Intn(len(o.samples))])
		} else {
			fresh[i] = o.Sample(r)
		}
	}
	o.samples = fresh
	return o.samples
}

// Samples returns the cached sample cloud (nil if EnsureSamples was never
// called).
func (o *Object) Samples() []vec.Vector { return o.samples }

// DropSamples releases the cached cloud. For empirical joint objects this
// discards the joint information (moments remain exact); it is a
// programming error to drop and then expect joint resampling.
func (o *Object) DropSamples() {
	o.samples = nil
	o.joint = false
}

// IsDeterministic reports whether every marginal is a point mass
// (zero total variance).
func (o *Object) IsDeterministic() bool { return o.totalVar == 0 }

// String summarizes the object.
func (o *Object) String() string {
	return fmt.Sprintf("Object{id=%d m=%d σ²=%.4g}", o.ID, o.Dims(), o.totalVar)
}

// Dataset is an ordered collection of uncertain objects with a common
// dimensionality.
type Dataset []*Object

// Dims returns the dimensionality of the dataset's objects.
func (ds Dataset) Dims() int {
	if len(ds) == 0 {
		return 0
	}
	return ds[0].Dims()
}

// Labels returns the reference labels of all objects.
func (ds Dataset) Labels() []int {
	ls := make([]int, len(ds))
	for i, o := range ds {
		ls[i] = o.Label
	}
	return ls
}

// Means returns the expected-value vectors of all objects. The vectors are
// shared with the objects; callers must not modify them.
func (ds Dataset) Means() []vec.Vector {
	ms := make([]vec.Vector, len(ds))
	for i, o := range ds {
		ms[i] = o.Mean()
	}
	return ms
}

// EnsureSamples fills the sample cloud of every object with n realizations,
// using per-object substreams of r so the result is order-independent.
func (ds Dataset) EnsureSamples(r *rng.RNG, n int) {
	for i, o := range ds {
		o.EnsureSamples(r.Split(uint64(i)), n)
	}
}

// Validate checks that the dataset is non-empty and that all objects share
// one dimensionality, wrapping ErrEmptyDataset / ErrDimMismatch.
func (ds Dataset) Validate() error {
	if len(ds) == 0 {
		return fmt.Errorf("uncertain: %w", ErrEmptyDataset)
	}
	m := ds[0].Dims()
	for i, o := range ds {
		if o.Dims() != m {
			return fmt.Errorf("uncertain: object %d has dim %d, want %d: %w", i, o.Dims(), m, ErrDimMismatch)
		}
	}
	return nil
}
