package dist

import (
	"fmt"
	"math"
	"sort"

	"ucpc/internal/rng"
)

// Discrete is a finite atomic distribution: probability weight w_i on
// support point x_i. It backs empirical marginals (objects built from
// sample clouds) and the "D:" tokens of the ucsv serialization.
//
// The atoms are stored sorted ascending; the moments are exact weighted
// sums. Construct with NewDiscrete — the zero value is unusable.
type Discrete struct {
	xs []float64 // sorted ascending
	ws []float64 // normalized weights of xs
	cw []float64 // cumulative weights; cw[len-1] == 1
	mu float64
	m2 float64
	v  float64
}

// NewDiscrete returns the atomic distribution with the given support points
// and weights. A nil or empty weights slice means uniform 1/n weights.
// Weights need not be normalized (they are rescaled to sum to 1) but must
// be non-negative with a positive sum. It panics on empty xs, mismatched
// lengths, or invalid weights.
func NewDiscrete(xs, ws []float64) Discrete {
	n := len(xs)
	if n == 0 {
		panic("dist: Discrete with no support points")
	}
	if ws != nil && len(ws) != n {
		panic(fmt.Sprintf("dist: Discrete with %d points but %d weights", n, len(ws)))
	}
	type atom struct{ x, w float64 }
	atoms := make([]atom, n)
	var total float64
	for i, x := range xs {
		w := 1.0
		if ws != nil {
			w = ws[i]
			if w < 0 {
				panic(fmt.Sprintf("dist: Discrete with negative weight %v", w))
			}
		}
		atoms[i] = atom{x: x, w: w}
		total += w
	}
	if total <= 0 {
		panic("dist: Discrete with zero total weight")
	}
	sort.Slice(atoms, func(i, j int) bool { return atoms[i].x < atoms[j].x })

	d := Discrete{
		xs: make([]float64, n),
		ws: make([]float64, n),
		cw: make([]float64, n),
	}
	acc := 0.0
	for i, a := range atoms {
		w := a.w / total
		d.xs[i], d.ws[i] = a.x, w
		acc += w
		d.cw[i] = acc
		d.mu += w * a.x
		d.m2 += w * a.x * a.x
	}
	d.cw[n-1] = 1 // absorb accumulation error so CDF tops out exactly at 1
	// A rounded mean may land an ulp outside the atoms; clamp it, so that
	// coinciding atoms have their own value as the mean and variance 0.
	d.mu = math.Max(d.xs[0], math.Min(d.mu, d.xs[n-1]))
	// The variance is summed as Σ w·(x − µ)², never as m₂ − µ², which
	// cancels catastrophically and can round negative.
	for i, x := range d.xs {
		dx := x - d.mu
		d.v += d.ws[i] * dx * dx
	}
	return d
}

// N returns the number of stored atoms (duplicates count separately).
func (d Discrete) N() int { return len(d.xs) }

// Mean returns Σ w_i·x_i.
func (d Discrete) Mean() float64 { return d.mu }

// SecondMoment returns Σ w_i·x_i².
func (d Discrete) SecondMoment() float64 { return d.m2 }

// Var returns the weighted variance Σ w_i·(x_i − µ)², which is never
// negative.
func (d Discrete) Var() float64 { return d.v }

// Support returns [min x_i, max x_i].
func (d Discrete) Support() (float64, float64) { return d.xs[0], d.xs[len(d.xs)-1] }

// Sample draws an atom by inverse CDF (one uniform variate per draw).
func (d Discrete) Sample(r *rng.RNG) float64 {
	u := r.Float64()
	i := sort.Search(len(d.cw), func(i int) bool { return d.cw[i] > u })
	if i == len(d.xs) {
		i--
	}
	return d.xs[i]
}

// Atom returns stored atom i (0 ≤ i < N()) and its probability weight.
func (d Discrete) Atom(i int) (x, w float64) { return d.xs[i], d.ws[i] }

// PDF returns the total probability mass at exactly x (0 off the atoms).
func (d Discrete) PDF(x float64) float64 {
	i := sort.SearchFloat64s(d.xs, x)
	var p float64
	for ; i < len(d.xs) && d.xs[i] == x; i++ {
		p += d.ws[i]
	}
	return p
}

// CDF returns Σ_{x_i ≤ x} w_i.
func (d Discrete) CDF(x float64) float64 {
	// First index with xs[i] > x; cumulative weight of everything before.
	i := sort.Search(len(d.xs), func(i int) bool { return d.xs[i] > x })
	if i == 0 {
		return 0
	}
	return d.cw[i-1]
}

// Quantile returns the smallest atom x with CDF(x) ≥ p.
func (d Discrete) Quantile(p float64) float64 {
	p = clamp01(p)
	i := sort.Search(len(d.cw), func(i int) bool { return d.cw[i] >= p })
	if i == len(d.xs) {
		i--
	}
	return d.xs[i]
}
