// Package dist is the repository's distribution subsystem: univariate
// marginal distributions with exact closed-form moments, the building block
// of the paper's uncertain-object model (§2.1). An uncertain object carries
// one Distribution per dimension; everything the clustering machinery needs
// — the expected-value vector µ, the second-order moment vector µ₂, and the
// variance vector σ² of eq. 2–6 — is read off the marginals in O(1) per
// dimension, which is what makes the U-centroid criterion J(C) (Theorem 3)
// and the O(m) relocation step (Corollary 1) computable without sampling.
//
// Seven families are provided, covering the paper's uncertainty generator
// (Uniform, truncated Normal, truncated Exponential, §5.1), degenerate
// objects (PointMass), empirical marginals (Discrete), and the untruncated
// Normal/Exponential used by the ucsv serialization format.
//
// All families are small value types: they are cheap to copy, usable as
// type-switch cases, and safe to share between goroutines. Sampling is
// driven exclusively by the caller's *rng.RNG, so runs are reproducible.
package dist

import "ucpc/internal/rng"

// Distribution is a univariate probability distribution with exact
// closed-form moments.
//
// PDF returns a density for continuous families and a probability mass for
// atomic families (PointMass, Discrete); the clustering algorithms only
// ever compare densities of the same family, so the two readings never mix
// in a meaningful way.
type Distribution interface {
	// Mean returns the expected value E[X].
	Mean() float64
	// SecondMoment returns the raw second moment E[X²].
	SecondMoment() float64
	// Var returns the variance E[X²] − E[X]².
	Var() float64
	// Support returns the smallest interval [lo, hi] with P(X ∈ [lo,hi]) = 1.
	// Unbounded families return ±Inf endpoints.
	Support() (lo, hi float64)
	// Sample draws one realization using r as the only randomness source.
	Sample(r *rng.RNG) float64
	// PDF evaluates the density (or probability mass) at x.
	PDF(x float64) float64
	// CDF returns P(X ≤ x).
	CDF(x float64) float64
	// Quantile returns the p-quantile inf{x : CDF(x) ≥ p} for p ∈ [0, 1].
	Quantile(p float64) float64
}

// Moments returns d's Mean, SecondMoment and Var. The truncated families,
// whose three closed forms share costly terms, have a Moments method that
// evaluates them once and returns the same bits as the three methods; any
// other Distribution is asked for each in turn.
func Moments(d Distribution) (mean, secondMoment, variance float64) {
	if m, ok := d.(interface {
		Moments() (float64, float64, float64)
	}); ok {
		return m.Moments()
	}
	return d.Mean(), d.SecondMoment(), d.Var()
}
