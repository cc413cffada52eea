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
// supporting points: D:x1:w1:x2:w2:…

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
		ms := make([]dist.Distribution, len(rec)-1)
		for j := 0; j < len(rec)-1; j++ {
			d, err := decodeDist(rec[j])
			if err != nil {
				return nil, fmt.Errorf("datasets: ucsv row %d dim %d: %w", rowNum, j, err)
			}
			ms[j] = d
		}
		ds = append(ds, uncertain.NewObject(rowNum-1, ms).WithLabel(label))
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
// yielding non-finite moments return a wrapped ErrMalformed, never a panic.
// This is the object wire format of the serving daemon's JSON payloads,
// shared with the CSV reader so there is exactly one hardened parser.
func ParseMarginal(tok string) (dist.Distribution, error) {
	return decodeDist(tok)
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
		for p := 0.0; p < 1; p += 1 / float64(t.N()) {
			x := t.Quantile(p + 0.5/float64(t.N()))
			b.WriteString(":" + f(x) + ":" + f(1/float64(t.N())))
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

// checkMoments rejects a decoded marginal whose closed-form moments are not
// finite numbers — parameters can be individually finite yet combine into
// overflow (e.g. a Uniform spanning the whole float range) or an empty
// truncation region (NaN moments). Letting such objects through would make
// every downstream distance NaN without any error. It also rejects finite
// but wrong moments, which would silently corrupt the statistics instead:
// a mean outside Support() [lo, hi], or a variance above (hi − lo)²/4
// (Popoviciu's bound), each beyond momentUlps of rounding.
func checkMoments(d dist.Distribution, tok string) (dist.Distribution, error) {
	mu, v := d.Mean(), d.Var()
	if !finite(mu) || !finite(d.SecondMoment()) || !finite(v) || v < 0 {
		return nil, fmt.Errorf("token %q: parameters yield non-finite moments: %w", tok, ErrMalformed)
	}
	lo, hi := d.Support()
	if mu < lo-momentUlps*math.Abs(lo) || mu > hi+momentUlps*math.Abs(hi) {
		return nil, fmt.Errorf("token %q: mean %v outside support [%v, %v]: %w", tok, mu, lo, hi, ErrMalformed)
	}
	// Variances of the m₂ − µ² form round at the scale of µ², not of the
	// variance itself, so the slack is relative to the larger of the two.
	if bound := (hi - lo) * (hi - lo) / 4; v > bound+momentUlps*math.Max(bound, mu*mu) {
		return nil, fmt.Errorf("token %q: variance %v above the (hi-lo)²/4 bound %v: %w", tok, v, bound, ErrMalformed)
	}
	return d, nil
}

// decodeDist parses one marginal token. Every panic domain of the dist
// constructors is validated away first, so malformed tokens always return a
// wrapped ErrMalformed.
func decodeDist(tok string) (dist.Distribution, error) {
	parts := strings.Split(tok, ":")
	bad := func(format string, args ...any) error {
		return fmt.Errorf("token %q: "+format+": %w", append(append([]any{tok}, args...), ErrMalformed)...)
	}
	nums := func(want int) ([]float64, error) {
		if len(parts)-1 != want {
			return nil, bad("%d params, want %d", len(parts)-1, want)
		}
		out := make([]float64, want)
		for i := 0; i < want; i++ {
			s := parts[i+1]
			switch s {
			case "-inf":
				out[i] = negInf
				continue
			case "+inf", "inf":
				out[i] = posInf
				continue
			}
			v, err := strconv.ParseFloat(s, 64)
			if err != nil || math.IsNaN(v) {
				return nil, bad("bad number %q", s)
			}
			out[i] = v
		}
		return out, nil
	}
	switch parts[0] {
	case "P":
		v, err := nums(1)
		if err != nil {
			return nil, err
		}
		if !finite(v[0]) {
			return nil, bad("non-finite point mass %v", v[0])
		}
		return dist.NewPointMass(v[0]), nil
	case "U":
		v, err := nums(2)
		if err != nil {
			return nil, err
		}
		if !finite(v[0]) || !finite(v[1]) || v[1] < v[0] {
			return nil, bad("invalid uniform bounds [%v, %v]", v[0], v[1])
		}
		return checkMoments(dist.NewUniform(v[0], v[1]), tok)
	case "N":
		v, err := nums(4)
		if err != nil {
			return nil, err
		}
		if !finite(v[0]) || !finite(v[1]) || v[1] < 0 {
			return nil, bad("invalid normal location/scale (%v, %v)", v[0], v[1])
		}
		if v[2] == negInf && v[3] == posInf {
			return checkMoments(dist.NewNormal(v[0], v[1]), tok)
		}
		if !finite(v[2]) || !finite(v[3]) || v[3] <= v[2] || v[1] == 0 {
			return nil, bad("invalid truncation [%v, %v] for sigma %v", v[2], v[3], v[1])
		}
		return checkMoments(dist.NewTruncNormal(v[0], v[1], v[2], v[3]), tok)
	case "E":
		if len(parts)-1 == 3 {
			v, err := nums(3)
			if err != nil {
				return nil, err
			}
			if !finite(v[0]) || v[0] <= 0 || !finite(v[1]) {
				return nil, bad("invalid exponential rate/shift (%v, %v)", v[0], v[1])
			}
			if v[2] == posInf {
				return checkMoments(dist.NewExponential(v[0], v[1]), tok)
			}
			if !finite(v[2]) || v[2] <= 0 {
				return nil, bad("invalid exponential window %v", v[2])
			}
			return checkMoments(dist.NewTruncExponential(v[0], v[1], v[2]), tok)
		}
		v, err := nums(2)
		if err != nil {
			return nil, err
		}
		if !finite(v[0]) || v[0] <= 0 || !finite(v[1]) {
			return nil, bad("invalid exponential rate/shift (%v, %v)", v[0], v[1])
		}
		return checkMoments(dist.NewExponential(v[0], v[1]), tok)
	case "D":
		if (len(parts)-1)%2 != 0 || len(parts) == 1 {
			return nil, bad("discrete needs x:w pairs")
		}
		n := (len(parts) - 1) / 2
		xs := make([]float64, n)
		ws := make([]float64, n)
		var total float64
		for i := 0; i < n; i++ {
			x, err := strconv.ParseFloat(parts[1+2*i], 64)
			if err != nil || !finite(x) {
				return nil, bad("bad support point %q", parts[1+2*i])
			}
			w, err := strconv.ParseFloat(parts[2+2*i], 64)
			if err != nil || !finite(w) || w < 0 {
				return nil, bad("bad weight %q", parts[2+2*i])
			}
			xs[i], ws[i] = x, w
			total += w
		}
		if total <= 0 || !finite(total) {
			return nil, bad("discrete weights sum to %v", total)
		}
		return checkMoments(dist.NewDiscrete(xs, ws), tok)
	default:
		return nil, bad("unknown marginal family %q", parts[0])
	}
}

var (
	posInf = math.Inf(1)
	negInf = math.Inf(-1)
)
