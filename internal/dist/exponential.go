package dist

import (
	"fmt"
	"math"

	"ucpc/internal/rng"
)

// Exponential is the shifted Exponential distribution: X = Shift + Y with
// Y ~ Exp(Rate), supported on [Shift, +Inf).
type Exponential struct {
	Rate, Shift float64
}

// NewExponential returns the Exponential with the given rate, shifted to
// start at shift. It panics if rate <= 0.
func NewExponential(rate, shift float64) Exponential {
	if rate <= 0 {
		panic(fmt.Sprintf("dist: Exponential with non-positive rate %v", rate))
	}
	return Exponential{Rate: rate, Shift: shift}
}

// Mean returns Shift + 1/Rate.
func (e Exponential) Mean() float64 { return e.Shift + 1/e.Rate }

// SecondMoment returns E[(Shift+Y)²] = Shift² + 2·Shift/Rate + 2/Rate².
func (e Exponential) SecondMoment() float64 {
	return e.Shift*e.Shift + 2*e.Shift/e.Rate + 2/(e.Rate*e.Rate)
}

// Var returns 1/Rate².
func (e Exponential) Var() float64 { return 1 / (e.Rate * e.Rate) }

// Support returns [Shift, +Inf).
func (e Exponential) Support() (float64, float64) { return e.Shift, math.Inf(1) }

// Sample draws by inverse CDF through the generator's Exp stream.
func (e Exponential) Sample(r *rng.RNG) float64 {
	return e.Shift + r.Exp()/e.Rate
}

// PDF returns Rate·e^{−Rate·(x−Shift)} for x ≥ Shift.
func (e Exponential) PDF(x float64) float64 {
	if x < e.Shift {
		return 0
	}
	return e.Rate * math.Exp(-e.Rate*(x-e.Shift))
}

// CDF returns 1 − e^{−Rate·(x−Shift)}.
func (e Exponential) CDF(x float64) float64 {
	if x <= e.Shift {
		return 0
	}
	return -math.Expm1(-e.Rate * (x - e.Shift))
}

// Quantile returns Shift − ln(1−p)/Rate.
func (e Exponential) Quantile(p float64) float64 {
	p = clamp01(p)
	if p == 1 {
		return math.Inf(1)
	}
	return e.Shift - math.Log1p(-p)/e.Rate
}

// TruncExponential is a shifted Exponential restricted and renormalized to
// the window [Shift, Shift+T]: X = Shift + Y with Y ~ Exp(Rate) conditioned
// on Y ≤ T.
type TruncExponential struct {
	Rate, Shift, T float64
}

// NewTruncExponential returns the shifted Exponential with the given rate
// truncated to [shift, shift+T]. It panics if rate <= 0 or T <= 0.
func NewTruncExponential(rate, shift, T float64) TruncExponential {
	if rate <= 0 {
		panic(fmt.Sprintf("dist: TruncExponential with non-positive rate %v", rate))
	}
	if T <= 0 {
		panic(fmt.Sprintf("dist: TruncExponential with non-positive window %v", T))
	}
	return TruncExponential{Rate: rate, Shift: shift, T: T}
}

// NewTruncExponentialMass returns a shifted Exponential with the given
// rate, truncated to its lower `mass` quantiles (T = −ln(1−mass)/rate) and
// shifted so that the truncated mean is exactly mean. This is the paper's
// §5.1 Exponential uncertainty model: the object's expected value is pinned
// at the original data point while the domain region stays finite. It
// panics if rate <= 0 or mass ∉ (0, 1).
func NewTruncExponentialMass(mean, rate, mass float64) TruncExponential {
	if mass <= 0 || mass >= 1 {
		panic(fmt.Sprintf("dist: TruncExponentialMass with mass %v outside (0,1)", mass))
	}
	T := -math.Log1p(-mass) / rate
	// Mean of Exp(rate) conditioned on Y ≤ T: 1/rate − T·(1−mass)/mass.
	meanY := 1/rate - T*(1-mass)/mass
	return NewTruncExponential(rate, mean-meanY, T)
}

// mass returns the captured probability M = 1 − e^{−Rate·T}.
func (t TruncExponential) mass() float64 { return -math.Expm1(-t.Rate * t.T) }

// Moments returns the mean, raw second moment and variance of Shift + Y,
// with Y ~ Exp(Rate) conditioned on Y ≤ T and M the captured mass:
//
//	E[Y]  = 1/λ − T·(1−M)/M
//	E[Y²] = [2/λ² − (1−M)(T² + 2T/λ + 2/λ²)] / M
//	Var   = E[Y²] − E[Y]²
//
// Below u = λT = 1 both forms cancel (at u = 1e-9 the variance comes out
// negative). There the moments of X = Y/T are taken from their Bernoulli
// series instead, E[X] = 1/2 − Σ c_n u^(2n−1) and Var[X] = Σ (2n−1) c_n
// u^(2n−2) with c_n = B_2n/(2n)!; they converge for u < 2π, and ten terms
// reach a few ulps at u = 1.
func (t TruncExponential) Moments() (mean, secondMoment, variance float64) {
	var my, m2y float64
	if u := t.Rate * t.T; u < 1 {
		w := u * u
		my = t.T * (0.5 - u*horner(w, expMeanSeries[:]))
		variance = t.T * t.T * horner(w, expVarSeries[:])
		m2y = variance + my*my
	} else {
		l := t.Rate
		m := t.mass()
		my = 1/l - t.T*(1-m)/m
		m2y = (2/(l*l) - (1-m)*(t.T*t.T+2*t.T/l+2/(l*l))) / m
		variance = m2y - my*my
	}
	return t.Shift + my, t.Shift*t.Shift + 2*t.Shift*my + m2y, variance
}

// expMeanSeries holds c_n = B_2n/(2n)! for n = 1…10, and expVarSeries
// holds (2n−1)·c_n: the coefficients, in powers of u², of the small-u
// series in TruncExponential.Moments.
var (
	expMeanSeries = [...]float64{
		1.0 / 12, -1.0 / 720, 1.0 / 30240, -1.0 / 1209600, 1.0 / 47900160,
		-691.0 / 1307674368000, 1.0 / 74724249600, -3617.0 / 10670622842880000,
		43867.0 / 5109094217170944000, -174611.0 / 802857662698291200000,
	}
	expVarSeries = [...]float64{
		1.0 / 12, -3.0 / 720, 5.0 / 30240, -7.0 / 1209600, 9.0 / 47900160,
		-11 * 691.0 / 1307674368000, 13.0 / 74724249600, -15 * 3617.0 / 10670622842880000,
		17 * 43867.0 / 5109094217170944000, -19 * 174611.0 / 802857662698291200000,
	}
)

// horner evaluates Σ c[i]·w^i.
func horner(w float64, c []float64) float64 {
	var s float64
	for i := len(c) - 1; i >= 0; i-- {
		s = s*w + c[i]
	}
	return s
}

// Mean returns Shift + E[Y | Y ≤ T] (see Moments).
func (t TruncExponential) Mean() float64 {
	m, _, _ := t.Moments()
	return m
}

// SecondMoment returns E[(Shift+Y)²] with Y the truncated exponential part.
func (t TruncExponential) SecondMoment() float64 {
	_, m2, _ := t.Moments()
	return m2
}

// Var returns E[Y²|Y≤T] − E[Y|Y≤T]² (see Moments).
func (t TruncExponential) Var() float64 {
	_, _, v := t.Moments()
	return v
}

// Support returns [Shift, Shift+T].
func (t TruncExponential) Support() (float64, float64) { return t.Shift, t.Shift + t.T }

// Sample draws by inverse-CDF transform (one uniform variate per draw).
func (t TruncExponential) Sample(r *rng.RNG) float64 {
	return t.Quantile(r.Float64())
}

// PDF returns the renormalized exponential density inside the window.
func (t TruncExponential) PDF(x float64) float64 {
	y := x - t.Shift
	if y < 0 || y > t.T {
		return 0
	}
	return t.Rate * math.Exp(-t.Rate*y) / t.mass()
}

// CDF returns (1 − e^{−Rate·(x−Shift)})/M clamped to [0, 1].
func (t TruncExponential) CDF(x float64) float64 {
	y := x - t.Shift
	if y <= 0 {
		return 0
	}
	if y >= t.T {
		return 1
	}
	return -math.Expm1(-t.Rate*y) / t.mass()
}

// Quantile returns Shift − ln(1 − p·M)/Rate, clamped to the support.
func (t TruncExponential) Quantile(p float64) float64 {
	p = clamp01(p)
	y := -math.Log1p(-p*t.mass()) / t.Rate
	if y > t.T {
		y = t.T
	}
	return t.Shift + y
}
