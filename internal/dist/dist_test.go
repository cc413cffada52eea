package dist

import (
	"math"
	"testing"

	"ucpc/internal/rng"
)

// Compile-time interface compliance for every family.
var (
	_ Distribution = Uniform{}
	_ Distribution = PointMass{}
	_ Distribution = Normal{}
	_ Distribution = TruncNormal{}
	_ Distribution = Exponential{}
	_ Distribution = TruncExponential{}
	_ Distribution = Discrete{}
)

// families returns one representative of every family, including awkward
// parameterizations (negative means, tight truncations, duplicate atoms).
func families() map[string]Distribution {
	return map[string]Distribution{
		"uniform":          NewUniform(-3, 7),
		"uniform-around":   NewUniformAround(-2.5, 4),
		"point":            NewPointMass(4.25),
		"normal":           NewNormal(-1.5, 2.25),
		"trunc-normal":     NewTruncNormal(2, 1.5, 0, 3),
		"trunc-normal-c":   NewTruncNormalCentral(-4, 0.8, 0.95),
		"exponential":      NewExponential(1.75, -2),
		"trunc-exp":        NewTruncExponential(0.6, 1, 5),
		"trunc-exp-mass":   NewTruncExponentialMass(-3, 1.5, 0.95),
		"discrete-uniform": NewDiscrete([]float64{3, -1, 0.5, 3}, nil),
		"discrete-weights": NewDiscrete([]float64{-2, 0, 2}, []float64{1, 2, 5}),
	}
}

// TestMomentsAgainstMonteCarlo cross-checks every family's closed-form
// Mean/SecondMoment/Var against a Monte Carlo estimate over Sample.
func TestMomentsAgainstMonteCarlo(t *testing.T) {
	const n = 200000
	for name, d := range families() {
		r := rng.New(42)
		var sum, sq float64
		for i := 0; i < n; i++ {
			x := d.Sample(r)
			sum += x
			sq += x * x
		}
		mcMean := sum / n
		mcM2 := sq / n
		scale := 1 + math.Abs(d.Mean()) + math.Sqrt(math.Max(d.Var(), 0))
		if diff := math.Abs(mcMean - d.Mean()); diff > 0.02*scale {
			t.Errorf("%s: MC mean %v vs closed form %v", name, mcMean, d.Mean())
		}
		if diff := math.Abs(mcM2 - d.SecondMoment()); diff > 0.05*(1+math.Abs(d.SecondMoment())) {
			t.Errorf("%s: MC µ₂ %v vs closed form %v", name, mcM2, d.SecondMoment())
		}
		if v := d.Var(); math.Abs(v-(d.SecondMoment()-d.Mean()*d.Mean())) > 1e-9*(1+math.Abs(v)) {
			t.Errorf("%s: Var %v inconsistent with µ₂−µ² = %v", name, v, d.SecondMoment()-d.Mean()*d.Mean())
		}
		if v := d.Var(); v < 0 {
			t.Errorf("%s: negative variance %v", name, v)
		}
	}
}

// TestSamplesInsideSupport verifies every draw lands in [Support()].
func TestSamplesInsideSupport(t *testing.T) {
	for name, d := range families() {
		r := rng.New(7)
		lo, hi := d.Support()
		if lo > hi {
			t.Fatalf("%s: inverted support [%v, %v]", name, lo, hi)
		}
		for i := 0; i < 5000; i++ {
			x := d.Sample(r)
			if x < lo || x > hi {
				t.Fatalf("%s: sample %v outside support [%v, %v]", name, x, lo, hi)
			}
		}
	}
}

// TestQuantileCDFRoundTrip checks CDF(Quantile(p)) ≈ p for continuous
// families, and the Galois-connection version Quantile(CDF(x)) ≤ x ≤
// right-continuity for atomic ones.
func TestQuantileCDFRoundTrip(t *testing.T) {
	ps := []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}
	for name, d := range families() {
		switch d.(type) {
		case PointMass, Discrete:
			// Atomic families: Quantile(p) must be an atom with
			// CDF(atom) ≥ p and CDF(atom⁻) < p.
			for _, p := range ps {
				x := d.Quantile(p)
				if c := d.CDF(x); c < p-1e-12 {
					t.Errorf("%s: CDF(Quantile(%v)) = %v < p", name, p, c)
				}
				if c := d.CDF(x - 1e-9); c >= p && p > c-1 { // left limit below p
					t.Errorf("%s: Quantile(%v) = %v is not minimal (CDF(x⁻) = %v)", name, p, x, c)
				}
			}
		default:
			for _, p := range ps {
				x := d.Quantile(p)
				if c := d.CDF(x); math.Abs(c-p) > 1e-9 {
					t.Errorf("%s: CDF(Quantile(%v)) = %v", name, p, c)
				}
			}
		}
	}
}

// TestCDFMonotone checks the CDF is non-decreasing from 0 to 1 over a grid
// spanning the support.
func TestCDFMonotone(t *testing.T) {
	for name, d := range families() {
		lo, hi := d.Support()
		loBounded, hiBounded := !math.IsInf(lo, -1), !math.IsInf(hi, 1)
		if !loBounded {
			lo = d.Mean() - 10*math.Sqrt(d.Var()+1)
		}
		if !hiBounded {
			hi = d.Mean() + 10*math.Sqrt(d.Var()+1)
		}
		prev := -1.0
		for i := 0; i <= 200; i++ {
			x := lo + (hi-lo)*float64(i)/200
			c := d.CDF(x)
			if c < prev-1e-12 {
				t.Fatalf("%s: CDF decreases at %v: %v -> %v", name, x, prev, c)
			}
			if c < -1e-12 || c > 1+1e-12 {
				t.Fatalf("%s: CDF(%v) = %v outside [0,1]", name, x, c)
			}
			prev = c
		}
		if c := d.CDF(hi + 1); hiBounded && c != 1 {
			t.Errorf("%s: CDF beyond support = %v", name, c)
		}
		if c := d.CDF(lo - 1); loBounded && c != 0 {
			t.Errorf("%s: CDF below support = %v", name, c)
		}
	}
}

// TestPDFIntegratesToOne numerically integrates the density of the
// continuous families over their (effective) support.
func TestPDFIntegratesToOne(t *testing.T) {
	for name, d := range families() {
		switch d.(type) {
		case PointMass, Discrete:
			continue
		}
		lo, hi := d.Support()
		if math.IsInf(lo, -1) {
			lo = d.Mean() - 12*math.Sqrt(d.Var())
		}
		if math.IsInf(hi, 1) {
			hi = d.Mean() + 12*math.Sqrt(d.Var())
		}
		const steps = 20000
		w := (hi - lo) / steps
		var integral float64
		for i := 0; i < steps; i++ {
			integral += d.PDF(lo+(float64(i)+0.5)*w) * w
		}
		if math.Abs(integral-1) > 1e-3 {
			t.Errorf("%s: PDF integrates to %v", name, integral)
		}
	}
}

// TestExactMeans pins the constructors that promise an exact mean.
func TestExactMeans(t *testing.T) {
	cases := []struct {
		name string
		d    Distribution
		want float64
	}{
		{"uniform-around", NewUniformAround(3.5, 2), 3.5},
		{"trunc-normal-central", NewTruncNormalCentral(-1.25, 0.7, 0.95), -1.25},
		{"trunc-exp-mass", NewTruncExponentialMass(4, 1.5, 0.95), 4},
		{"trunc-exp-mass-neg", NewTruncExponentialMass(-2.5, 0.4, 0.9), -2.5},
		{"point", NewPointMass(9), 9},
	}
	for _, c := range cases {
		if got := c.d.Mean(); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: Mean = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestTruncNormalCentralMass verifies the truncation interval captures the
// requested central mass of the parent Normal.
func TestTruncNormalCentralMass(t *testing.T) {
	for _, mass := range []float64{0.5, 0.9, 0.95, 0.99} {
		tn := NewTruncNormalCentral(2, 1.5, mass)
		parent := NewNormal(2, 1.5)
		got := parent.CDF(tn.Hi) - parent.CDF(tn.Lo)
		if math.Abs(got-mass) > 1e-9 {
			t.Errorf("mass %v: interval captures %v", mass, got)
		}
	}
}

// TestTruncExponentialMassWindow verifies the T window of the mass
// constructor captures the requested mass of the parent Exponential.
func TestTruncExponentialMassWindow(t *testing.T) {
	for _, mass := range []float64{0.5, 0.9, 0.95, 0.99} {
		te := NewTruncExponentialMass(1, 2, mass)
		parent := NewExponential(2, te.Shift)
		got := parent.CDF(te.Shift + te.T)
		if math.Abs(got-mass) > 1e-9 {
			t.Errorf("mass %v: window captures %v", mass, got)
		}
	}
}

// TestStdQuantileAccuracy probes Φ⁻¹ against Φ across the unit interval,
// including deep tails.
func TestStdQuantileAccuracy(t *testing.T) {
	n := NewNormal(0, 1)
	for _, p := range []float64{1e-12, 1e-9, 1e-6, 1e-3, 0.02425, 0.3, 0.5, 0.7, 0.97575, 1 - 1e-6, 1 - 1e-9} {
		z := n.Quantile(p)
		if back := n.CDF(z); math.Abs(back-p) > 1e-12*(1+p/1e-6) && math.Abs(back-p)/p > 1e-9 {
			t.Errorf("Φ(Φ⁻¹(%v)) = %v", p, back)
		}
	}
	if !math.IsInf(n.Quantile(0), -1) || !math.IsInf(n.Quantile(1), 1) {
		t.Error("Normal quantile endpoints not ±Inf")
	}
}

// TestDiscreteBasics pins Discrete bookkeeping: sorted atoms, weights,
// exact moments, N.
func TestDiscreteBasics(t *testing.T) {
	d := NewDiscrete([]float64{2, -1, 5}, []float64{1, 1, 2})
	if d.N() != 3 {
		t.Fatalf("N = %d", d.N())
	}
	if lo, hi := d.Support(); lo != -1 || hi != 5 {
		t.Errorf("Support = [%v, %v]", lo, hi)
	}
	wantMean := (-1.0 + 2.0 + 2*5.0) / 4
	if math.Abs(d.Mean()-wantMean) > 1e-12 {
		t.Errorf("Mean = %v, want %v", d.Mean(), wantMean)
	}
	if p := d.PDF(5); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("PDF(5) = %v", p)
	}
	if p := d.PDF(1.5); p != 0 {
		t.Errorf("PDF off-atom = %v", p)
	}
	if c := d.CDF(2); math.Abs(c-0.5) > 1e-12 {
		t.Errorf("CDF(2) = %v", c)
	}
	// Duplicate atoms accumulate mass.
	dup := NewDiscrete([]float64{1, 1, 3}, nil)
	if p := dup.PDF(1); math.Abs(p-2.0/3) > 1e-12 {
		t.Errorf("duplicate-atom PDF = %v", p)
	}
}

// TestConstructorPanics verifies the guard rails.
func TestConstructorPanics(t *testing.T) {
	cases := map[string]func(){
		"uniform-inverted":    func() { NewUniform(2, 1) },
		"uniform-neg-width":   func() { NewUniformAround(0, -1) },
		"normal-neg-sigma":    func() { NewNormal(0, -1) },
		"truncnorm-bad-sigma": func() { NewTruncNormal(0, 0, -1, 1) },
		"truncnorm-bad-box":   func() { NewTruncNormal(0, 1, 1, 1) },
		"truncnorm-bad-mass":  func() { NewTruncNormalCentral(0, 1, 1) },
		"exp-bad-rate":        func() { NewExponential(0, 0) },
		"truncexp-bad-rate":   func() { NewTruncExponential(-1, 0, 1) },
		"truncexp-bad-window": func() { NewTruncExponential(1, 0, 0) },
		"truncexp-bad-mass":   func() { NewTruncExponentialMass(0, 1, 0) },
		"discrete-empty":      func() { NewDiscrete(nil, nil) },
		"discrete-mismatch":   func() { NewDiscrete([]float64{1}, []float64{1, 2}) },
		"discrete-neg-weight": func() { NewDiscrete([]float64{1}, []float64{-1}) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestSamplingDeterminism: same seed, same stream.
func TestSamplingDeterminism(t *testing.T) {
	for name, d := range families() {
		a, b := rng.New(99), rng.New(99)
		for i := 0; i < 100; i++ {
			if d.Sample(a) != d.Sample(b) {
				t.Fatalf("%s: non-deterministic sampling", name)
			}
		}
	}
}

func BenchmarkTruncNormalSample(b *testing.B) {
	d := NewTruncNormalCentral(0, 1, 0.95)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Sample(r)
	}
}

func BenchmarkStdQuantile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = stdQuantile(float64(i%1000+1) / 1001)
	}
}

// TestTruncNormalUpperTail: windows wholly above the mean (α > 0) take
// their moments from the lower-tail mirror, where Z = Φ(β) − Φ(α) does not
// cancel. The mean negates and the variance carries over bit for bit, and
// far-tail windows keep their mean inside the support.
func TestTruncNormalUpperTail(t *testing.T) {
	cases := []struct {
		mu, sigma, lo, hi float64
		mean, variance    float64 // reference values, 0 = not checked
	}{
		{0, 1, 8, 9, 8.1212, 0.014149},
		{0, 1, 9, 10, 9.1085, 0},
		{0, 1, 0.5, 3, 0, 0},
		{-3, 2, 5, 20, 0, 0},
		{1e3, 0.5, 1003, 1004, 0, 0},
	}
	for _, tc := range cases {
		tn := NewTruncNormal(tc.mu, tc.sigma, tc.lo, tc.hi)
		mirror := NewTruncNormal(-tc.mu, tc.sigma, -tc.hi, -tc.lo)
		if tn.Mean() != -mirror.Mean() || tn.Var() != mirror.Var() {
			t.Errorf("%+v: moments (%v, %v) vs mirror (%v, %v)", tc, tn.Mean(), tn.Var(), -mirror.Mean(), mirror.Var())
		}
		if m := tn.Mean(); m < tc.lo || m > tc.hi {
			t.Errorf("%+v: mean %v outside [%v, %v]", tc, m, tc.lo, tc.hi)
		}
		if v, w := tn.Var(), tc.hi-tc.lo; v <= 0 || v > w*w/4 {
			t.Errorf("%+v: variance %v outside (0, %v]", tc, v, w*w/4)
		}
		if tc.mean != 0 && math.Abs(tn.Mean()-tc.mean) > 1e-4 {
			t.Errorf("%+v: mean %v, want ≈ %v", tc, tn.Mean(), tc.mean)
		}
		if tc.variance != 0 && math.Abs(tn.Var()-tc.variance) > 1e-6 {
			t.Errorf("%+v: variance %v, want ≈ %v", tc, tn.Var(), tc.variance)
		}
	}
}

// TestMomentsMatchClosedForms pins the one-pass Moments to the per-method
// closed forms it replaced, bit for bit: TruncNormal keeps its mirrored
// lower-tail form, and TruncExponential its closed form wherever λT ≥ 1.
func TestMomentsMatchClosedForms(t *testing.T) {
	truncNormal := func(tn TruncNormal) (float64, float64) {
		alpha, beta, z := tn.bounds()
		pa, pb := stdPDF(alpha), stdPDF(beta)
		d := (pa - pb) / z
		return tn.Mu + tn.Sigma*(stdPDF(alpha)-stdPDF(beta))/z,
			tn.Sigma * tn.Sigma * (1 + (alpha*pa-beta*pb)/z - d*d)
	}
	for _, tn := range []TruncNormal{
		NewTruncNormal(2, 1.5, 0, 3), NewTruncNormal(0, 1, -9, -8),
		NewTruncNormal(0, 1, 8, 9), NewTruncNormalCentral(-4, 0.8, 0.95),
	} {
		mean, variance := truncNormal(tn)
		if mt, upper := tn.mirror(); upper {
			mean, variance = truncNormal(mt)
			mean = -mean
		}
		mu, m2, v := tn.Moments()
		if mu != mean || v != variance || m2 != variance+mean*mean {
			t.Errorf("%+v: Moments (%v, %v, %v), closed form (%v, %v)", tn, mu, m2, v, mean, variance)
		}
	}
	for _, te := range []TruncExponential{
		NewTruncExponential(0.6, 1, 5), NewTruncExponential(1, -2, 1),
		NewTruncExponentialMass(-3, 1.5, 0.95), NewTruncExponential(40, 3, 2),
	} {
		l, m := te.Rate, te.mass()
		my := 1/l - te.T*(1-m)/m
		m2y := (2/(l*l) - (1-m)*(te.T*te.T+2*te.T/l+2/(l*l))) / m
		mu, m2, v := te.Moments()
		if mu != te.Shift+my || m2 != te.Shift*te.Shift+2*te.Shift*my+m2y || v != m2y-my*my {
			t.Errorf("%+v: Moments (%v, %v, %v) left the closed form", te, mu, m2, v)
		}
	}
}

// TestMomentsHelper: dist.Moments returns each family's Mean,
// SecondMoment and Var bit for bit, through the family's own Moments
// method and through the per-method fallback a Distribution without one
// gets.
func TestMomentsHelper(t *testing.T) {
	for _, d := range []Distribution{
		NewPointMass(1.5), NewUniform(-1, 2), NewNormal(0.5, 2), NewExponential(3, -1),
		NewTruncNormal(2, 1.5, 0, 3), NewTruncNormal(0, 1, 8, 9),
		NewTruncExponential(0.6, 1, 5), NewTruncExponential(1e-9, 0, 1),
		NewDiscrete([]float64{1, 2, 3}, []float64{0.2, 0.3, 0.5}),
	} {
		want := [3]float64{d.Mean(), d.SecondMoment(), d.Var()}
		for _, got := range [][3]float64{
			func() (r [3]float64) { r[0], r[1], r[2] = Moments(d); return }(),
			func() (r [3]float64) { r[0], r[1], r[2] = Moments(struct{ Distribution }{d}); return }(),
		} {
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("%T: Moments %v, methods %v", d, got, want)
				}
			}
		}
	}
}

// truncExpReference returns the mean and variance of X ~ e^{−uX} on
// [0, 1] by composite Simpson quadrature, sharing nothing with the closed
// form or its series.
func truncExpReference(u float64) (mean, variance float64) {
	const n = 20000 // even; h⁴u⁴/180 < 1e-12 up to u = 50
	simpson := func(f func(x float64) float64) float64 {
		h := 1.0 / n
		s := f(0) + f(1)
		for i := 1; i < n; i++ {
			w := 2.0
			if i%2 == 1 {
				w = 4
			}
			s += w * f(float64(i)*h)
		}
		return s * h / 3
	}
	z := simpson(func(x float64) float64 { return math.Exp(-u * x) })
	mean = simpson(func(x float64) float64 { return x * math.Exp(-u*x) }) / z
	variance = simpson(func(x float64) float64 { return (x - mean) * (x - mean) * math.Exp(-u*x) }) / z
	return mean, variance
}

// TestTruncExponentialSmallRate: the truncated exponential's moments are
// accurate to 1e-9 relative over λT ∈ [1e-12, 50], where the closed form
// alone cancels as λT → 0 (E:1e-4:0:1 gave σ² = 0.0832150 for 0.0833333,
// and E:1e-9:0:1 a negative variance).
func TestTruncExponentialSmallRate(t *testing.T) {
	rel := func(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }
	for _, u := range []float64{1e-12, 1e-9, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 0.9, 0.999, 1, 1.001, 1.5, 3, 10, 50} {
		mean, variance := truncExpReference(u)
		for _, te := range []TruncExponential{
			NewTruncExponential(u, 0, 1),
			NewTruncExponential(u/4, -7, 4), // same shape, scaled by T = 4 and shifted
		} {
			mu, m2, v := te.Moments()
			wantMu, wantV := te.Shift+te.T*mean, te.T*te.T*variance
			if rel(mu, wantMu) > 1e-9 || rel(v, wantV) > 1e-9 || rel(m2, wantV+wantMu*wantMu) > 1e-9 {
				t.Errorf("u=%g %+v: moments (%v, %v, %v), reference (%v, %v)", u, te, mu, m2, v, wantMu, wantV)
			}
		}
	}
}

// upperTailWindows are truncated normals wholly above their mean (α > 0),
// from just past the mode to 20σ out, where Φ(α) rounds to 1.
func upperTailWindows() []TruncNormal {
	return []TruncNormal{
		NewTruncNormal(0, 1, 0.5, 3),
		NewTruncNormal(-3, 2, 5, 20),
		NewTruncNormal(0, 1, 8, 9),
		NewTruncNormal(0, 1, 9, 10),
		NewTruncNormal(0, 1, 20, 21),
		NewTruncNormal(1e3, 0.5, 1003, 1004),
	}
}

// TestTruncNormalUpperTailSampling: draws from an upper-tail window average
// to its closed-form mean within 5 standard errors. Sampling inverts the
// CDF, so a Quantile that cancels in Φ(α) + p·Z biases every draw.
func TestTruncNormalUpperTailSampling(t *testing.T) {
	const n = 10000
	for _, tn := range upperTailWindows() {
		r := rng.New(1)
		var sum float64
		for i := 0; i < n; i++ {
			sum += tn.Sample(r)
		}
		mean, se := sum/n, math.Sqrt(tn.Var()/n)
		if math.Abs(mean-tn.Mean()) > 5*se {
			t.Errorf("%+v: sample mean %v vs Mean() %v (%.1f standard errors)",
				tn, mean, tn.Mean(), math.Abs(mean-tn.Mean())/se)
		}
	}
}

// TestTruncNormalUpperTailCDF: on upper-tail windows the PDF is finite, the
// CDF rises monotonically through [0, 1], and Quantile inverts it wherever
// the CDF is at least 1e-9 from 0 and 1 (closer, p's rounding alone moves
// the quantile further than the tolerance).
func TestTruncNormalUpperTailCDF(t *testing.T) {
	for _, tn := range upperTailWindows() {
		w := tn.Hi - tn.Lo
		prev := 0.0
		for i := 1; i < 200; i++ {
			x := tn.Lo + w*float64(i)/200
			if f := tn.PDF(x); !(f > 0) || math.IsInf(f, 0) {
				t.Fatalf("%+v: PDF(%v) = %v", tn, x, f)
			}
			c := tn.CDF(x)
			if !(c >= prev && c <= 1) {
				t.Fatalf("%+v: CDF(%v) = %v after %v", tn, x, c, prev)
			}
			prev = c
			if c < 1e-9 || c > 1-1e-9 {
				continue
			}
			if q := tn.Quantile(c); math.Abs(q-x) > 1e-6*w {
				t.Fatalf("%+v: Quantile(CDF(%v)) = %v", tn, x, q)
			}
		}
	}
}
