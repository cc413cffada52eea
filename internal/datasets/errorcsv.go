package datasets

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"ucpc/internal/dist"
	"ucpc/internal/uncertain"
)

// ReadErrorCSV reads the most common real-world format for measured data:
// each attribute occupies two adjacent columns, value then standard error
// (v1, e1, v2, e2, …), optionally followed by one integer label column.
// Every measurement becomes a Normal marginal N(v, e²) truncated to its
// central `mass` (e.g. 0.95) probability; zero error yields a point mass.
//
// This turns instrument exports (sensor logs with per-channel error bars,
// probe-level microarray summaries, assay replicate means ± sd) directly
// into uncertain objects without the synthetic uncertainty generator.
// Malformed rows — unparseable numbers, non-finite or negative errors,
// value/error pairs whose moments overflow — return a wrapped ErrMalformed,
// never a panic.
func ReadErrorCSV(r io.Reader, hasLabels bool, mass float64) (uncertain.Dataset, error) {
	if mass <= 0 || mass >= 1 {
		return nil, fmt.Errorf("datasets: error-CSV mass %v out of (0,1): %w", mass, ErrMalformed)
	}
	// The half-width of the central-mass window is z·e; precompute z (it
	// depends only on mass) so each measurement can be checked for window
	// collapse before the truncated normal is constructed.
	z := dist.NewNormal(0, 1).Quantile((1 + mass) / 2)
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
			return nil, fmt.Errorf("datasets: error-CSV row %d: %v: %w", rowNum, err, ErrMalformed)
		}
		rowNum++
		fields := len(rec)
		label := -1
		if hasLabels {
			fields--
			label, err = strconv.Atoi(rec[fields])
			if err != nil {
				return nil, fmt.Errorf("datasets: error-CSV row %d label %q: %w", rowNum, rec[fields], ErrMalformed)
			}
		}
		if fields <= 0 || fields%2 != 0 {
			return nil, fmt.Errorf("datasets: error-CSV row %d has %d value/error fields, want a positive even count: %w",
				rowNum, fields, ErrMalformed)
		}
		m := fields / 2
		ms := make([]dist.Distribution, m)
		for j := 0; j < m; j++ {
			v, err := strconv.ParseFloat(rec[2*j], 64)
			if err != nil || !finite(v) {
				return nil, fmt.Errorf("datasets: error-CSV row %d value %q: %w", rowNum, rec[2*j], ErrMalformed)
			}
			e, err := strconv.ParseFloat(rec[2*j+1], 64)
			if err != nil || !finite(e) {
				return nil, fmt.Errorf("datasets: error-CSV row %d error %q: %w", rowNum, rec[2*j+1], ErrMalformed)
			}
			if e < 0 {
				return nil, fmt.Errorf("datasets: error-CSV row %d: negative error %v: %w", rowNum, e, ErrMalformed)
			}
			if w := z * e; e == 0 || v-w >= v+w {
				// Zero error, or an error below the float resolution at
				// |v| (the central window [v−z·e, v+z·e] collapses to a
				// point): the uncertainty is unrepresentable at this
				// magnitude, so read the measurement as exact. Blindly
				// constructing the truncated normal used to panic on the
				// empty window (found by FuzzReadErrorCSV).
				ms[j] = dist.NewPointMass(v)
			} else {
				d := dist.NewTruncNormalCentral(v, e, mass)
				if err := checkMoments(d); err != nil {
					return nil, fmt.Errorf("datasets: error-CSV row %d: %s±%s: %w", rowNum, rec[2*j], rec[2*j+1], err)
				}
				ms[j] = d
			}
		}
		ds = append(ds, uncertain.NewObject(rowNum-1, ms).WithLabel(label))
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("datasets: empty error-CSV input: %w", ErrMalformed)
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}
