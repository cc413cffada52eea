package datasets

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"ucpc/internal/uncertain"
)

// The fuzz targets harden the untrusted-input surface of this package: the
// two CSV readers and the synthetic-spec generator. The invariant under
// test is uniform — malformed input returns a wrapped error (ErrMalformed
// or one of the uncertain sentinels), never a panic, and accepted input
// yields objects whose closed-form moments are finite. Seed corpora live
// under testdata/fuzz/<Target>/ and double as regression tests for inputs
// that used to panic (dist constructor panic domains reached through the
// parsers).

// checkParsed asserts the all-accepted-objects-have-finite-moments
// invariant shared by both CSV readers.
func checkParsed(t *testing.T, ds uncertain.Dataset) {
	t.Helper()
	for i, o := range ds {
		for j := 0; j < o.Dims(); j++ {
			mu, mu2, s2 := o.Mean()[j], o.SecondMoment()[j], o.VarVector()[j]
			if math.IsNaN(mu) || math.IsInf(mu, 0) ||
				math.IsNaN(mu2) || math.IsInf(mu2, 0) ||
				math.IsNaN(s2) || math.IsInf(s2, 0) || s2 < 0 {
				t.Fatalf("object %d dim %d: accepted with moments µ=%v µ₂=%v σ²=%v", i, j, mu, mu2, s2)
			}
		}
	}
}

func FuzzReadUncertainCSV(f *testing.F) {
	f.Add("P:1,U:0:1,0\n")
	f.Add("N:0:1:-inf:+inf,E:2:0:+inf,-1\nN:1:0.5:-2:2,E:1:0:3,4\n")
	f.Add("D:1:0.5:2:0.5,7\n")
	f.Add("U:5:1,0\n")       // inverted uniform bounds: used to panic
	f.Add("N:0:-1:-2:2,0\n") // negative sigma: used to panic
	f.Add("E:0:0:+inf,0\n")  // zero rate: used to panic
	f.Add("D:1:-3,0\n")      // negative discrete weight: used to panic
	f.Add("N:0:1:5:5,0\n")   // empty truncation window: used to panic
	f.Add("U:inf:inf,0\n")   // non-finite bounds: NaN moments
	f.Add("P:nan,0\n")
	// Discrete write-backs that used to change the marginal: unequal
	// weights (mean 2.3 came back as 2), a dropped light atom, and ten
	// uniform atoms that came back as eleven.
	f.Add("D:1:0.2:2:0.3:3:0.5,0\n")
	f.Add("D:0:0.9:1:0.1,0\n")
	f.Add("D:1:1:2:1:3:1:4:1:5:1:6:1:7:1:8:1:9:1:10:1,0\n")
	f.Fuzz(func(t *testing.T, data string) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		ds, err := ReadUncertainCSV(strings.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrMalformed) &&
				!errors.Is(err, uncertain.ErrDimMismatch) && !errors.Is(err, uncertain.ErrEmptyDataset) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		checkParsed(t, ds)
		// Round trip: everything the reader accepts, the writer can encode
		// and the reader accepts again with the same moments, up to the
		// rounding of re-normalized Discrete weights.
		var buf bytes.Buffer
		if err := WriteUncertainCSV(&buf, ds); err != nil {
			t.Fatalf("write-back of accepted input: %v", err)
		}
		ds2, err := ReadUncertainCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of written output: %v", err)
		}
		if len(ds2) != len(ds) {
			t.Fatalf("round trip: %d objects became %d", len(ds), len(ds2))
		}
		for i, o := range ds {
			for j := 0; j < o.Dims(); j++ {
				tol := 1e-12 * math.Max(1, o.SecondMoment()[j])
				mu, v := ds2[i].Mean()[j], ds2[i].VarVector()[j]
				if math.Abs(mu-o.Mean()[j]) > tol || math.Abs(v-o.VarVector()[j]) > tol {
					t.Fatalf("round trip object %d dim %d: mean %v var %v became mean %v var %v",
						i, j, o.Mean()[j], o.VarVector()[j], mu, v)
				}
			}
		}
	})
}

func FuzzReadErrorCSV(f *testing.F) {
	f.Add("1.5,0.1,2.5,0.2\n", false, 0.95)
	f.Add("1,0,2,0.5,3\n", true, 0.9)
	f.Add("1,-1\n", false, 0.95)    // negative error
	f.Add("1,1e308\n", false, 0.95) // variance overflow
	f.Add("1,nan\n", false, 0.95)   // non-finite error
	f.Add("1,0.1\n", false, 1.5)    // mass out of range
	f.Fuzz(func(t *testing.T, data string, hasLabels bool, mass float64) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		ds, err := ReadErrorCSV(strings.NewReader(data), hasLabels, mass)
		if err != nil {
			if !errors.Is(err, ErrMalformed) &&
				!errors.Is(err, uncertain.ErrDimMismatch) && !errors.Is(err, uncertain.ErrEmptyDataset) {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		checkParsed(t, ds)
	})
}

func FuzzSpecGenerate(f *testing.F) {
	f.Add(150, 4, 3, 3.0, 0.0, 1.0, uint64(1))
	f.Add(64, 2, 8, 1.2, 0.5, 0.5, uint64(9))
	f.Add(3, 1, 3, 0.0, 0.99, 0.1, uint64(2))
	f.Add(0, 0, 0, math.NaN(), -1.0, 0.0, uint64(0)) // invalid on every axis
	f.Fuzz(func(t *testing.T, n, dims, classes int, sep, imb, frac float64, seed uint64) {
		// Bound the workload, not the validity: huge-but-valid specs are a
		// resource problem for the fuzzer, not a correctness one.
		if n > 2000 || dims > 16 || classes > 64 {
			t.Skip()
		}
		spec := Spec{Name: "fuzz", N: n, Dims: dims, Classes: classes, Separation: sep, Imbalance: imb}
		if err := spec.Validate(); err != nil {
			if !errors.Is(err, ErrMalformed) {
				t.Fatalf("untyped validation error: %v", err)
			}
			return
		}
		d := Generate(spec, seed)
		if len(d.Points) != spec.N || len(d.Labels) != spec.N {
			t.Fatalf("generated %d points / %d labels, want %d", len(d.Points), len(d.Labels), spec.N)
		}
		for i, p := range d.Points {
			if len(p) != spec.Dims {
				t.Fatalf("point %d has dim %d", i, len(p))
			}
			for _, v := range p {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("point %d has non-finite coordinate %v", i, v)
				}
			}
			if l := d.Labels[i]; l < 0 || l >= spec.Classes {
				t.Fatalf("point %d labeled %d (classes %d)", i, l, spec.Classes)
			}
		}
		// Scale preserves every class for any fraction in (0, 1].
		if math.IsNaN(frac) || frac <= 0 {
			frac = 0.5
		}
		if frac > 1 {
			frac = 1
		}
		scaled := d.Scale(frac)
		seen := map[int]bool{}
		for _, l := range scaled.Labels {
			seen[l] = true
		}
		if len(seen) != spec.Classes {
			t.Fatalf("Scale(%v) kept %d of %d classes", frac, len(seen), spec.Classes)
		}
	})
}

// FuzzParseMarginal: a token either parses to a distribution with valid
// moments or is rejected with ErrMalformed, and ParseObject on the token
// alone agrees, building the same distribution.
func FuzzParseMarginal(f *testing.F) {
	for _, tc := range marginalCases {
		f.Add(tc.tok)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		if len(tok) > 512 {
			t.Skip()
		}
		d, err := ParseMarginal(tok)
		o, objErr := ParseObject(0, []string{tok})
		if (err == nil) != (objErr == nil) {
			t.Fatalf("%q: ParseMarginal err %v, ParseObject err %v", tok, err, objErr)
		}
		if err != nil {
			if !errors.Is(err, ErrMalformed) || !errors.Is(objErr, ErrMalformed) {
				t.Fatalf("untyped parse error: %v / %v", err, objErr)
			}
			return
		}
		if why := momentsViolation(d); why != "" {
			t.Fatalf("%q accepted with %s (mean %v, variance %v)", tok, why, d.Mean(), d.Var())
		}
		if !reflect.DeepEqual(o.Marginal(0), d) {
			t.Fatalf("%q: ParseObject built %#v, ParseMarginal %#v", tok, o.Marginal(0), d)
		}
	})
}
