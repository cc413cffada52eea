package datasets

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"ucpc/internal/dist"
	"ucpc/internal/uncertain"
)

// ErrMalformed marks unparseable or semantically invalid dataset input
// (bad CSV structure, unknown marginal families, non-finite or
// out-of-domain distribution parameters). Every parser in this package
// wraps it, so callers can test errors.Is(err, ErrMalformed) regardless of
// which reader produced the failure. Malformed rows always surface as
// errors, never as panics — the dist constructors' panic domains are
// validated away before construction.
var ErrMalformed = errors.New("malformed dataset input")

// Uncertain CSV ("ucsv") is a plain-CSV serialization of uncertain
// datasets: one row per object, one field per attribute, and a final
// integer label field (-1 = unlabeled). Each attribute field encodes its
// marginal distribution as colon-separated tokens:
//
//	P:x           point mass at x
//	U:lo:hi       Uniform on [lo, hi]
//	N:mu:sigma:lo:hi   Normal(mu, sigma²) truncated to [lo, hi]
//	E:rate:shift:T     shifted Exponential truncated to [shift, shift+T]
//
// The format loses nothing for the four closed-form families used by the
// uncertainty generator; Discrete marginals are serialized as their
// stored atoms, each with its own weight: D:x1:w1:x2:w2:…

// WriteUncertainCSV serializes ds to w.
func WriteUncertainCSV(w io.Writer, ds uncertain.Dataset) error {
	cw := csv.NewWriter(w)
	for i, o := range ds {
		row := make([]string, o.Dims()+1)
		for j := 0; j < o.Dims(); j++ {
			tok, err := encodeDist(o.Marginal(j))
			if err != nil {
				return fmt.Errorf("datasets: object %d dim %d: %w", i, j, err)
			}
			row[j] = tok
		}
		row[o.Dims()] = strconv.Itoa(o.Label)
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("datasets: write object %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadUncertainCSV parses a dataset serialized by WriteUncertainCSV.
func ReadUncertainCSV(r io.Reader) (uncertain.Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	var ds uncertain.Dataset
	rowNum := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("datasets: ucsv row %d: %v: %w", rowNum, err, ErrMalformed)
		}
		rowNum++
		if len(rec) < 2 {
			return nil, fmt.Errorf("datasets: ucsv row %d has %d fields, want >= 2: %w", rowNum, len(rec), ErrMalformed)
		}
		label, err := strconv.Atoi(rec[len(rec)-1])
		if err != nil {
			return nil, fmt.Errorf("datasets: ucsv row %d label %q: %w", rowNum, rec[len(rec)-1], ErrMalformed)
		}
		o, err := ParseObject(rowNum-1, rec[:len(rec)-1])
		if err != nil {
			return nil, fmt.Errorf("datasets: ucsv row %d: %w", rowNum, err)
		}
		ds = append(ds, o.WithLabel(label))
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("datasets: empty ucsv input: %w", ErrMalformed)
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// ParseMarginal decodes one ucsv marginal token (see the format comment
// above) into a distribution, applying the same validation as
// ReadUncertainCSV: malformed tokens, unknown families, and parameters
// yielding invalid moments (see checkMoments) return a wrapped
// ErrMalformed, never a panic.
// This is the object wire format of the serving daemon's JSON payloads,
// shared with the CSV reader so there is exactly one hardened parser.
func ParseMarginal(tok string) (dist.Distribution, error) {
	d, err := decodeDist(tok)
	if err != nil {
		return nil, err
	}
	if err := checkMoments(d); err != nil {
		return nil, fmt.Errorf("token %q: %w", tok, err)
	}
	return d, nil
}

// ParseObject parses one object's marginal tokens into an object with the
// given id (label -1), applying the checks of ParseMarginal and
// CheckObject. Each token's closed form is evaluated once: the moment
// check reads the moments and support the object caches.
func ParseObject(id int, toks []string) (*uncertain.Object, error) {
	if len(toks) == 0 {
		return nil, fmt.Errorf("object has no marginals: %w", ErrMalformed)
	}
	ms := make([]dist.Distribution, len(toks))
	for j, tok := range toks {
		d, err := decodeDist(tok)
		if err != nil {
			return nil, fmt.Errorf("dim %d: %w", j, err)
		}
		ms[j] = d
	}
	o := uncertain.NewObject(id, ms)
	mu, mu2, v, r := o.Mean(), o.SecondMoment(), o.VarVector(), o.Region()
	for j, tok := range toks {
		if err := checkMomentValues(mu[j], mu2[j], v[j], r.Lo[j], r.Hi[j]); err != nil {
			return nil, fmt.Errorf("dim %d: token %q: %w", j, tok, err)
		}
	}
	if err := CheckObject(o); err != nil {
		return nil, err
	}
	return o, nil
}

// FormatMarginal encodes a distribution as its ucsv marginal token, the
// inverse of ParseMarginal for the closed-form families.
func FormatMarginal(d dist.Distribution) (string, error) {
	return encodeDist(d)
}

func encodeDist(d dist.Distribution) (string, error) {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	switch t := d.(type) {
	case dist.PointMass:
		return "P:" + f(t.X), nil
	case dist.Uniform:
		return "U:" + f(t.Lo) + ":" + f(t.Hi), nil
	case dist.Normal:
		// Untruncated Normals have no finite region; store their exact
		// parameters with infinite bounds spelled out.
		return "N:" + f(t.Mu) + ":" + f(t.Sigma) + ":-inf:+inf", nil
	case dist.TruncNormal:
		return "N:" + f(t.Mu) + ":" + f(t.Sigma) + ":" + f(t.Lo) + ":" + f(t.Hi), nil
	case dist.Exponential:
		return "E:" + f(t.Rate) + ":" + f(t.Shift) + ":+inf", nil
	case dist.TruncExponential:
		return "E:" + f(t.Rate) + ":" + f(t.Shift) + ":" + f(t.T), nil
	case dist.Discrete:
		var b strings.Builder
		b.WriteString("D")
		for i := 0; i < t.N(); i++ {
			x, w := t.Atom(i)
			b.WriteString(":" + f(x) + ":" + f(w))
		}
		return b.String(), nil
	default:
		return "", fmt.Errorf("unsupported marginal type %T", d)
	}
}

// finite reports whether v is a usable parameter value (not NaN, not ±Inf).
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// momentUlps is the relative rounding slack checkMoments grants the closed
// forms: a few ulps, so that a mean computed a rounding step past its
// support, or a two-point Discrete sitting exactly at Popoviciu's bound,
// still parses.
const momentUlps = 4 * 0x1p-52

// checkMoments rejects closed-form moments that are not finite numbers —
// parameters can be individually finite yet combine into overflow (e.g. a
// Uniform spanning the whole float range) or an empty truncation region
// (NaN moments). Letting such objects through would make every downstream
// distance NaN without any error. It also rejects finite but wrong
// moments, which would silently corrupt the statistics instead: a mean
// outside the support [lo, hi], or a variance above (hi − lo)²/4
// (Popoviciu's bound), each beyond momentUlps of rounding. The closed form
// is evaluated once, through dist.Moments.
func checkMoments(d dist.Distribution) error {
	mu, mu2, v := dist.Moments(d)
	lo, hi := d.Support()
	return checkMomentValues(mu, mu2, v, lo, hi)
}

// checkMomentValues is checkMoments on moments already evaluated: the
// mean mu, second moment mu2 and variance v of a distribution supported
// on [lo, hi].
func checkMomentValues(mu, mu2, v, lo, hi float64) error {
	if !finite(mu) || !finite(mu2) || !finite(v) || v < 0 {
		return fmt.Errorf("parameters yield non-finite moments: %w", ErrMalformed)
	}
	if mu < lo-momentUlps*math.Abs(lo) || mu > hi+momentUlps*math.Abs(hi) {
		return fmt.Errorf("mean %v outside support [%v, %v]: %w", mu, lo, hi, ErrMalformed)
	}
	// Variances of the m₂ − µ² form round at the scale of µ², not of the
	// variance itself, so the slack is relative to the larger of the two.
	if bound := (hi - lo) * (hi - lo) / 4; v > bound+momentUlps*math.Max(bound, mu*mu) {
		return fmt.Errorf("variance %v above the (hi-lo)²/4 bound %v: %w", v, bound, ErrMalformed)
	}
	return nil
}

// CheckPoint applies the moment check a "P:x" token gets to a plain point
// coordinate x, so a coordinate whose square overflows is rejected
// instead of scored at infinite distance from every prototype.
func CheckPoint(x float64) error {
	if err := checkMoments(dist.NewPointMass(x)); err != nil {
		return fmt.Errorf("point %v: %w", x, err)
	}
	return nil
}

// CheckObject rejects an object whose per-dimension second moments are
// each finite but sum to an overflow, Σ_j µ₂ = +Inf (e.g. two coordinates
// at 1e154). Every scalar the engines precompute (‖µ‖², σ², Σ_j µ₂) is
// bounded by that sum, so such an object would sit at +Inf distance from
// every prototype and silently land in cluster 0. Every reader of
// untrusted objects calls it once per object.
func CheckObject(o *uncertain.Object) error {
	var s float64
	for _, v := range o.SecondMoment() {
		s += v
	}
	if !finite(s) {
		return fmt.Errorf("second moments sum to %v: %w", s, ErrMalformed)
	}
	return nil
}

// decodeDist parses one marginal token. Every panic domain of the dist
// constructors is validated away first, so malformed tokens always return a
// wrapped ErrMalformed. It walks the colon-separated fields in place, so on
// success the only allocations are the returned interface value and, for
// D tokens, the atoms. The moments are its callers' to check.
func decodeDist(tok string) (dist.Distribution, error) {
	name, rest, _ := strings.Cut(tok, ":")
	nparams := strings.Count(tok, ":")
	bad := func(format string, args ...any) error {
		return fmt.Errorf("token %q: "+format+": %w", append(append([]any{tok}, args...), ErrMalformed)...)
	}
	var v [4]float64
	nums := func(want int) error {
		if nparams != want {
			return bad("%d params, want %d", nparams, want)
		}
		for i := 0; i < want; i++ {
			var s string
			s, rest, _ = strings.Cut(rest, ":")
			switch s {
			case "-inf":
				v[i] = negInf
				continue
			case "+inf", "inf":
				v[i] = posInf
				continue
			}
			x, err := strconv.ParseFloat(s, 64)
			if err != nil || math.IsNaN(x) {
				return bad("bad number %q", s)
			}
			v[i] = x
		}
		return nil
	}
	switch name {
	case "P":
		if err := nums(1); err != nil {
			return nil, err
		}
		return dist.NewPointMass(v[0]), nil
	case "U":
		if err := nums(2); err != nil {
			return nil, err
		}
		if !finite(v[0]) || !finite(v[1]) || v[1] < v[0] {
			return nil, bad("invalid uniform bounds [%v, %v]", v[0], v[1])
		}
		return dist.NewUniform(v[0], v[1]), nil
	case "N":
		if err := nums(4); err != nil {
			return nil, err
		}
		if !finite(v[0]) || !finite(v[1]) || v[1] < 0 {
			return nil, bad("invalid normal location/scale (%v, %v)", v[0], v[1])
		}
		if v[2] == negInf && v[3] == posInf {
			return dist.NewNormal(v[0], v[1]), nil
		}
		if !finite(v[2]) || !finite(v[3]) || v[3] <= v[2] || v[1] == 0 {
			return nil, bad("invalid truncation [%v, %v] for sigma %v", v[2], v[3], v[1])
		}
		return dist.NewTruncNormal(v[0], v[1], v[2], v[3]), nil
	case "E":
		want := 2
		if nparams == 3 {
			want = 3
		}
		if err := nums(want); err != nil {
			return nil, err
		}
		if !finite(v[0]) || v[0] <= 0 || !finite(v[1]) {
			return nil, bad("invalid exponential rate/shift (%v, %v)", v[0], v[1])
		}
		if want == 2 || v[2] == posInf {
			return dist.NewExponential(v[0], v[1]), nil
		}
		if !finite(v[2]) || v[2] <= 0 {
			return nil, bad("invalid exponential window %v", v[2])
		}
		return dist.NewTruncExponential(v[0], v[1], v[2]), nil
	case "D":
		if nparams%2 != 0 || nparams == 0 {
			return nil, bad("discrete needs x:w pairs")
		}
		n := nparams / 2
		xs := make([]float64, n)
		ws := make([]float64, n)
		var total float64
		for i := 0; i < n; i++ {
			var xf, wf string
			xf, rest, _ = strings.Cut(rest, ":")
			wf, rest, _ = strings.Cut(rest, ":")
			x, err := strconv.ParseFloat(xf, 64)
			if err != nil || !finite(x) {
				return nil, bad("bad support point %q", xf)
			}
			w, err := strconv.ParseFloat(wf, 64)
			if err != nil || !finite(w) || w < 0 {
				return nil, bad("bad weight %q", wf)
			}
			xs[i], ws[i] = x, w
			total += w
		}
		if total <= 0 || !finite(total) {
			return nil, bad("discrete weights sum to %v", total)
		}
		return dist.NewDiscrete(xs, ws), nil
	default:
		return nil, bad("unknown marginal family %q", name)
	}
}

var (
	posInf = math.Inf(1)
	negInf = math.Inf(-1)
)
