package dist

import (
	"fmt"
	"math"

	"ucpc/internal/rng"
)

// stdPDF is the standard normal density φ(z).
func stdPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

// stdCDF is the standard normal distribution function Φ(z), computed from
// the complementary error function for full tail accuracy.
func stdCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// stdQuantile is Φ⁻¹(p): Acklam's rational approximation (relative error
// < 1.2e-9 over (0,1)) polished with one Halley step against stdCDF, which
// brings the result to near machine precision.
func stdQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	const (
		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	var (
		a = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02, 1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
		b = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01}
		c = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00, -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
		d = [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00, 3.754408661907416e+00}
	)
	var z float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		z = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		z = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		z = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step: e = Φ(z) − p, u = e/φ(z),
	// z ← z − u/(1 + z·u/2).
	e := stdCDF(z) - p
	u := e / stdPDF(z)
	return z - u/(1+z*u/2)
}

// Normal is the (untruncated) Normal distribution with mean Mu and standard
// deviation Sigma.
type Normal struct {
	Mu, Sigma float64
}

// NewNormal returns Normal(mu, sigma²). It panics if sigma < 0.
func NewNormal(mu, sigma float64) Normal {
	if sigma < 0 {
		panic(fmt.Sprintf("dist: Normal with negative sigma %v", sigma))
	}
	return Normal{Mu: mu, Sigma: sigma}
}

// Mean returns Mu.
func (n Normal) Mean() float64 { return n.Mu }

// SecondMoment returns Mu² + Sigma².
func (n Normal) SecondMoment() float64 { return n.Mu*n.Mu + n.Sigma*n.Sigma }

// Var returns Sigma².
func (n Normal) Var() float64 { return n.Sigma * n.Sigma }

// Support returns (−Inf, +Inf).
func (n Normal) Support() (float64, float64) { return math.Inf(-1), math.Inf(1) }

// Sample draws via the generator's Box–Muller transform.
func (n Normal) Sample(r *rng.RNG) float64 { return r.Normal(n.Mu, n.Sigma) }

// PDF returns the Gaussian density at x.
func (n Normal) PDF(x float64) float64 {
	if n.Sigma == 0 {
		if x == n.Mu {
			return 1
		}
		return 0
	}
	return stdPDF((x-n.Mu)/n.Sigma) / n.Sigma
}

// CDF returns Φ((x−Mu)/Sigma).
func (n Normal) CDF(x float64) float64 {
	if n.Sigma == 0 {
		if x < n.Mu {
			return 0
		}
		return 1
	}
	return stdCDF((x - n.Mu) / n.Sigma)
}

// Quantile returns Mu + Sigma·Φ⁻¹(p).
func (n Normal) Quantile(p float64) float64 {
	if n.Sigma == 0 {
		return n.Mu
	}
	return n.Mu + n.Sigma*stdQuantile(clamp01(p))
}

// TruncNormal is a Normal(Mu, Sigma²) restricted and renormalized to
// [Lo, Hi].
type TruncNormal struct {
	Mu, Sigma float64
	Lo, Hi    float64
}

// NewTruncNormal returns Normal(mu, sigma²) truncated to [lo, hi]. It
// panics if sigma <= 0 or hi <= lo.
func NewTruncNormal(mu, sigma, lo, hi float64) TruncNormal {
	if sigma <= 0 {
		panic(fmt.Sprintf("dist: TruncNormal with non-positive sigma %v", sigma))
	}
	if hi <= lo {
		panic(fmt.Sprintf("dist: TruncNormal with hi %v <= lo %v", hi, lo))
	}
	return TruncNormal{Mu: mu, Sigma: sigma, Lo: lo, Hi: hi}
}

// NewTruncNormalCentral returns Normal(mu, sigma²) truncated to the
// symmetric interval holding its central mass (e.g. 0.95), so the truncated
// mean remains exactly mu. It panics if sigma <= 0 or mass ∉ (0, 1).
func NewTruncNormalCentral(mu, sigma, mass float64) TruncNormal {
	if mass <= 0 || mass >= 1 {
		panic(fmt.Sprintf("dist: TruncNormalCentral with mass %v outside (0,1)", mass))
	}
	z := stdQuantile((1 + mass) / 2)
	return NewTruncNormal(mu, sigma, mu-z*sigma, mu+z*sigma)
}

// bounds returns the standardized truncation points α, β and the captured
// mass Z = Φ(β) − Φ(α).
func (t TruncNormal) bounds() (alpha, beta, z float64) {
	alpha = (t.Lo - t.Mu) / t.Sigma
	beta = (t.Hi - t.Mu) / t.Sigma
	return alpha, beta, stdCDF(beta) - stdCDF(alpha)
}

// mirror returns the reflection of t about zero, and whether t lies
// wholly in the upper tail (α > 0). There Z = Φ(β) − Φ(α) subtracts two
// values close to 1 and cancels catastrophically, while the mirror's
// Z = Φ(−α) − Φ(−β) subtracts two small tail masses, each accurate from
// erfc. Every method answers such windows from the mirror: X = −Y with Y
// distributed as the mirror, so the mean negates, the variance is
// unchanged, f(x) = f_Y(−x), F(x) = P(Y ≥ −x) and F⁻¹(p) = −F_Y⁻¹(1−p).
func (t TruncNormal) mirror() (TruncNormal, bool) {
	alpha := (t.Lo - t.Mu) / t.Sigma
	return TruncNormal{Mu: -t.Mu, Sigma: t.Sigma, Lo: -t.Hi, Hi: -t.Lo}, alpha > 0
}

// Moments returns the standard truncated-normal closed forms from one
// evaluation of the bounds:
//
//	Mean = Mu + Sigma·(φ(α)−φ(β))/Z
//	Var  = Sigma²·[1 + (αφ(α)−βφ(β))/Z − ((φ(α)−φ(β))/Z)²]
//
// and SecondMoment = Var + Mean².
func (t TruncNormal) Moments() (mean, secondMoment, variance float64) {
	if mt, upper := t.mirror(); upper {
		mean, secondMoment, variance = mt.Moments()
		return -mean, secondMoment, variance
	}
	alpha, beta, z := t.bounds()
	pa, pb := stdPDF(alpha), stdPDF(beta)
	mean = t.Mu + t.Sigma*(pa-pb)/z
	d := (pa - pb) / z
	variance = t.Sigma * t.Sigma * (1 + (alpha*pa-beta*pb)/z - d*d)
	return mean, variance + mean*mean, variance
}

// Mean returns the truncated mean (see Moments).
func (t TruncNormal) Mean() float64 {
	m, _, _ := t.Moments()
	return m
}

// Var returns the truncated variance (see Moments).
func (t TruncNormal) Var() float64 {
	_, _, v := t.Moments()
	return v
}

// SecondMoment returns Var + Mean².
func (t TruncNormal) SecondMoment() float64 {
	_, m2, _ := t.Moments()
	return m2
}

// Support returns [Lo, Hi].
func (t TruncNormal) Support() (float64, float64) { return t.Lo, t.Hi }

// Sample draws by inverse-CDF transform, which stays exact in the tails and
// consumes exactly one uniform variate per draw.
func (t TruncNormal) Sample(r *rng.RNG) float64 {
	return t.Quantile(r.Float64())
}

// PDF returns the renormalized Gaussian density inside [Lo, Hi].
func (t TruncNormal) PDF(x float64) float64 {
	if x < t.Lo || x > t.Hi {
		return 0
	}
	if mt, upper := t.mirror(); upper {
		return mt.PDF(-x)
	}
	_, _, z := t.bounds()
	return stdPDF((x-t.Mu)/t.Sigma) / (t.Sigma * z)
}

// CDF returns (Φ((x−Mu)/Sigma) − Φ(α))/Z, 0 below Lo and 1 above Hi.
func (t TruncNormal) CDF(x float64) float64 {
	if x <= t.Lo {
		return 0
	}
	if x >= t.Hi {
		return 1
	}
	if mt, upper := t.mirror(); upper {
		// P(Y ≥ −x) = (Φ(β_Y) − Φ(y))/Z_Y, two lower-tail masses.
		_, beta, z := mt.bounds()
		return clamp01((stdCDF(beta) - stdCDF((-x-mt.Mu)/mt.Sigma)) / z)
	}
	alpha, _, z := t.bounds()
	return (stdCDF((x-t.Mu)/t.Sigma) - stdCDF(alpha)) / z
}

// Quantile returns Mu + Sigma·Φ⁻¹(Φ(α) + p·Z), clamped to [Lo, Hi].
func (t TruncNormal) Quantile(p float64) float64 {
	p = clamp01(p)
	var x float64
	if mt, upper := t.mirror(); upper {
		// −F_Y⁻¹(1−p) = −(Mu_Y + Sigma·Φ⁻¹(Φ(β_Y) − p·Z_Y)), without
		// forming 1−p.
		_, beta, z := mt.bounds()
		x = -(mt.Mu + mt.Sigma*stdQuantile(stdCDF(beta)-p*z))
	} else {
		alpha, _, z := t.bounds()
		x = t.Mu + t.Sigma*stdQuantile(stdCDF(alpha)+p*z)
	}
	// Guard the endpoints against floating-point spill.
	if x < t.Lo {
		return t.Lo
	}
	if x > t.Hi {
		return t.Hi
	}
	return x
}
