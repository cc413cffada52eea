package datasets

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"ucpc/internal/dist"
	"ucpc/internal/rng"
	"ucpc/internal/uncertain"
)

func mixedDataset() uncertain.Dataset {
	return uncertain.Dataset{
		uncertain.NewObject(0, []dist.Distribution{
			dist.NewPointMass(1.5),
			dist.NewUniform(-1, 2),
			dist.NewTruncNormalCentral(3, 0.5, 0.95),
		}).WithLabel(0),
		uncertain.NewObject(1, []dist.Distribution{
			dist.NewTruncExponentialMass(4, 1.5, 0.95),
			dist.NewNormal(0, 2),
			dist.NewExponential(2, -1),
		}).WithLabel(1),
		uncertain.NewObject(2, []dist.Distribution{
			dist.NewDiscrete([]float64{1, 2, 3}, nil),
			dist.NewUniform(0, 0),
			dist.NewPointMass(-7),
		}).WithLabel(-1),
	}
}

func TestUCSVRoundTripMoments(t *testing.T) {
	ds := mixedDataset()
	var buf bytes.Buffer
	if err := WriteUncertainCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadUncertainCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ds) {
		t.Fatalf("%d objects, want %d", len(back), len(ds))
	}
	for i, o := range ds {
		b := back[i]
		if b.Label != o.Label {
			t.Errorf("object %d label %d, want %d", i, b.Label, o.Label)
		}
		for j := 0; j < o.Dims(); j++ {
			if math.Abs(b.Mean()[j]-o.Mean()[j]) > 1e-9 {
				t.Errorf("object %d dim %d mean %v, want %v", i, j, b.Mean()[j], o.Mean()[j])
			}
			if math.Abs(b.VarVector()[j]-o.VarVector()[j]) > 1e-9*(1+o.VarVector()[j]) {
				t.Errorf("object %d dim %d var %v, want %v", i, j, b.VarVector()[j], o.VarVector()[j])
			}
			lo1, hi1 := o.Marginal(j).Support()
			lo2, hi2 := b.Marginal(j).Support()
			if lo1 != lo2 || hi1 != hi2 {
				t.Errorf("object %d dim %d support [%v,%v], want [%v,%v]", i, j, lo2, hi2, lo1, hi1)
			}
		}
	}
}

func TestUCSVRoundTripSampling(t *testing.T) {
	// Sampling from the decoded objects must match the original moments.
	ds := mixedDataset()
	var buf bytes.Buffer
	if err := WriteUncertainCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadUncertainCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(9)
	o := back[1]
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += o.Sample(r)[0]
	}
	if mean := sum / n; math.Abs(mean-4) > 0.05 {
		t.Errorf("decoded TruncExponential sample mean %v, want 4", mean)
	}
}

func TestUCSVGeneratedDatasetRoundTrip(t *testing.T) {
	spec, _ := MicroarrayByName("Neuroblastoma")
	ds := GenerateMicroarray(spec, 0.005, 3)
	var buf bytes.Buffer
	if err := WriteUncertainCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadUncertainCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds {
		if math.Abs(back[i].TotalVar()-ds[i].TotalVar()) > 1e-9*(1+ds[i].TotalVar()) {
			t.Fatalf("gene %d variance drifted: %v vs %v", i, back[i].TotalVar(), ds[i].TotalVar())
		}
	}
}

func TestUCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":                    "",
		"one field":                "P:1\n",
		"bad label":                "P:1,xx\n",
		"unknown family":           "Z:1,0\n",
		"bad params":               "U:1,0\n",
		"bad number":               "P:abc,0\n",
		"ragged dims":              "P:1,P:2,0\nP:1,0\n",
		"discrete odd":             "D:1:0.5:2,0\n",
		"row sum overflows":        "P:1e154,P:1e154,0\n", // each µ₂ = 1e308 is finite, Σ_j µ₂ is not
		"row sum overflows, mixed": "U:1e154:1e154,N:1e154:0:-inf:+inf,0\n",
	}
	for name, in := range cases {
		_, err := ReadUncertainCSV(strings.NewReader(in))
		if err == nil {
			t.Errorf("%s: accepted %q", name, in)
		} else if !errors.Is(err, ErrMalformed) && !errors.Is(err, uncertain.ErrDimMismatch) {
			t.Errorf("%s: untyped error %v", name, err)
		}
	}
}

func TestUCSVUntruncatedFamilies(t *testing.T) {
	ds := uncertain.Dataset{
		uncertain.NewObject(0, []dist.Distribution{
			dist.NewNormal(5, 3),
			dist.NewExponential(0.5, 2),
		}).WithLabel(4),
	}
	var buf bytes.Buffer
	if err := WriteUncertainCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadUncertainCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back[0].Marginal(0).(dist.Normal); !ok {
		t.Errorf("untruncated Normal decoded as %T", back[0].Marginal(0))
	}
	if _, ok := back[0].Marginal(1).(dist.Exponential); !ok {
		t.Errorf("untruncated Exponential decoded as %T", back[0].Marginal(1))
	}
}

// marginalCases covers every token family with tokens the parser must
// accept or reject on their moments; FuzzParseMarginal seeds from it.
var marginalCases = []struct {
	tok string
	ok  bool
}{
	{"P:1.5", true},
	{"P:1e200", false}, // µ₂ overflows: used to parse, then sit at +Inf distance from every prototype
	{"U:-1:2", true},
	{"U:-1e308:1e308", false}, // the width overflows: infinite variance
	{"N:0:1:-inf:+inf", true},
	{"N:2:1.5:0:3", true},
	{"N:0:1:-9:-8", true},
	{"N:0:1:8:9", true},         // upper tail: used to parse with its mean outside [8, 9]
	{"N:0:1:9:10", true},        // upper tail: used to be rejected as non-finite
	{"N:0:1:2:2.000001", false}, // narrow window: variance above (hi-lo)²/4
	{"N:0:1:40:41", false},      // beyond ~38σ: Z underflows to zero
	{"E:2:-1:+inf", true},
	{"E:2:1:3", true},
	{"E:2:1", true},
	{"E:1e-4:0:1", true}, // small λT: used to parse with σ² = 0.0832150 for 0.0833333
	{"E:1e-9:0:1", true}, // used to be rejected as non-finite (closed-form σ² = −0.25)
	{"D:1:0.2:2:0.3:3:0.5", true},
	{"D:0:0.5:1:0.5", true},                   // variance exactly at (hi-lo)²/4
	{"D:3.3:0.5:7.7:0.5", true},               // two ulps above the bound by rounding
	{"D:0.1:0.3:0.1:0.7", true},               // mean one ulp below the support
	{"D:1:0:2:0", false},                      // zero total weight
	{"D:10:1:10:1:10:1", true},                // coinciding atoms: used to be rejected, m₂ − µ² < 0
	{"D:123.456:1:123.456:1:123.456:1", true}, // used to parse with σ² = 1.8e-12
}

// momentsViolation restates checkMoments' invariants with a looser slack:
// finite moments, the mean inside Support(), and 0 ≤ Var ≤ (hi−lo)²/4,
// with Var exactly 0 on a zero-width support. It returns "" when d
// satisfies them.
func momentsViolation(d dist.Distribution) string {
	const slack = 1e-12
	mu, m2, v := d.Mean(), d.SecondMoment(), d.Var()
	lo, hi := d.Support()
	switch {
	case !finite(mu) || !finite(m2) || !finite(v) || v < 0:
		return "non-finite or negative moments"
	case lo == hi && v != 0:
		return "non-zero variance on a single point"
	case mu < lo-slack*math.Abs(lo) || mu > hi+slack*math.Abs(hi):
		return "mean outside support"
	case v > (hi-lo)*(hi-lo)/4+slack*math.Max((hi-lo)*(hi-lo)/4, mu*mu):
		return "variance above (hi-lo)²/4"
	}
	return ""
}

func TestParseMarginalMoments(t *testing.T) {
	for _, tc := range marginalCases {
		d, err := ParseMarginal(tc.tok)
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: accepted with mean %v, variance %v", tc.tok, d.Mean(), d.Var())
			} else if !errors.Is(err, ErrMalformed) {
				t.Errorf("%s: untyped error %v", tc.tok, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.tok, err)
			continue
		}
		if why := momentsViolation(d); why != "" {
			t.Errorf("%s: accepted with %s (mean %v, variance %v)", tc.tok, why, d.Mean(), d.Var())
		}
	}
}

// fakeMoments overrides a Uniform's moments, standing in for a closed form
// that returns finite but wrong values.
type fakeMoments struct {
	dist.Uniform
	mean, variance float64
}

func (f fakeMoments) Mean() float64         { return f.mean }
func (f fakeMoments) Var() float64          { return f.variance }
func (f fakeMoments) SecondMoment() float64 { return f.variance + f.mean*f.mean }

// TestCheckMomentsRejectsWrongMoments: finite moments that break the
// support or Popoviciu's bound are rejected, not passed on.
func TestCheckMomentsRejectsWrongMoments(t *testing.T) {
	u := dist.NewUniform(8, 9)
	for _, d := range []fakeMoments{
		{u, 7.58, 0.01}, // the old N:0:1:8:9 mean, below the support
		{u, 9.5, 0.01},  // above the support
		{u, 8.5, 4.16},  // the old N:0:1:8:9 variance, above 1/4
		{u, 8.5, 0.26},
	} {
		if err := checkMoments(d); !errors.Is(err, ErrMalformed) {
			t.Errorf("mean %v variance %v: err %v, want ErrMalformed", d.mean, d.variance, err)
		}
	}
	if err := checkMoments(fakeMoments{u, 9, 0.25}); err != nil {
		t.Errorf("moments at the support edge and the bound rejected: %v", err)
	}
}

// TestParseMarginalAllocs: the token scanner splits nothing and builds no
// parameter slice, so a closed-form token costs one allocation, the
// returned interface value.
func TestParseMarginalAllocs(t *testing.T) {
	for _, tok := range []string{
		"P:1.5", "U:-1:2", "N:2:1.5:0:3", "N:0:1:8:9", "N:0:1:-inf:+inf",
		"E:2:1:3", "E:2:-1:+inf", "E:2:1", "E:1e-9:0:1",
	} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := ParseMarginal(tok); err != nil {
				t.Fatalf("%s: %v", tok, err)
			}
		}); n > 1 {
			t.Errorf("%s: %v allocations per parse, want at most 1", tok, n)
		}
	}
}

// TestCheckPoint: a point coordinate is accepted or rejected like its P:
// token, with ErrMalformed.
func TestCheckPoint(t *testing.T) {
	for _, x := range []float64{0, -3.5, 1e150, 1e200, -1e200, math.MaxFloat64} {
		tok := "P:" + strconv.FormatFloat(x, 'g', -1, 64)
		err := CheckPoint(x)
		if _, werr := ParseMarginal(tok); (err == nil) != (werr == nil) {
			t.Errorf("%v: CheckPoint err %v, ParseMarginal(%q) err %v", x, err, tok, werr)
		}
		if err != nil && !errors.Is(err, ErrMalformed) {
			t.Errorf("%v: untyped error %v", x, err)
		}
	}
}
