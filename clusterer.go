package ucpc

import (
	"context"
	"errors"
	"fmt"
	"math"

	"ucpc/internal/clustering"
	"ucpc/internal/core"
	"ucpc/internal/rng"
	"ucpc/internal/uncertain"
)

// Config is the run configuration shared by every algorithm (aliased from
// the internal registry layer): worker-pool size, pruning mode, iteration
// cap, seed, and the per-iteration Progress callback. A single Config value
// means the same thing for every method.
type Config = clustering.Config

// ProgressEvent is one per-iteration report of an iterative algorithm.
type ProgressEvent = clustering.ProgressEvent

// ProgressFunc observes per-iteration progress; see Config.Progress.
type ProgressFunc = clustering.ProgressFunc

// DefaultSeed is the seed used whenever Options.Seed / Config.Seed is left
// at its zero value (seed 0 itself is reserved by the deterministic RNG).
// The cmd/ binaries default their -seed flags to this same constant.
const DefaultSeed = clustering.DefaultSeed

// The typed validation errors every entry point wraps; test with errors.Is.
var (
	// ErrBadK marks a cluster count outside [1, n].
	ErrBadK = clustering.ErrBadK
	// ErrEmptyDataset marks a dataset with no objects.
	ErrEmptyDataset = uncertain.ErrEmptyDataset
	// ErrDimMismatch marks objects of differing dimensionality, within a
	// dataset or between a Model and the objects scored against it.
	ErrDimMismatch = uncertain.ErrDimMismatch
	// ErrWarmStartUnsupported marks a FitFrom on an algorithm that cannot
	// resume from an initial assignment (the single-shot methods UAHC,
	// FDB, FOPT; the sample-based UK-means variants; UCPC-Bisect).
	ErrWarmStartUnsupported = clustering.ErrWarmStartUnsupported
	// ErrBadConfig marks an invalid run configuration — a negative worker
	// or shard count, a Decay outside [0, 1), a partitioner returning an
	// out-of-range shard (see Config.Validate and StreamConfig.Validate).
	ErrBadConfig = clustering.ErrBadConfig
)

// Clusterer is a reusable clustering session: an algorithm choice plus the
// shared Config. Fit builds a Model (the frozen outcome of one training
// run); the Model then serves out-of-sample assignment without refitting —
// the fit-once/assign-many split of the paper's Theorem 1 / Corollary 1,
// where U-centroids are built from a cluster once and fresh objects are
// scored against them by expected distance.
//
// The zero value is ready to use: it fits UCPC with default configuration.
// A Clusterer is stateless across calls (every Fit constructs a fresh
// algorithm instance), so one value may be shared by concurrent fits.
type Clusterer struct {
	// Algorithm selects the method by its paper abbreviation ("" means
	// "UCPC"); see AlgorithmNames.
	Algorithm string
	// Config is the shared run configuration.
	Config Config
}

// Fit partitions ds into k clusters and freezes the outcome as a Model.
// Inputs are validated up front: a nil/empty dataset returns
// ErrEmptyDataset, mixed dimensionalities return ErrDimMismatch, and k
// outside [1, n] returns ErrBadK (all wrapped; test with errors.Is). For
// the density-based methods (FDB, FOPT) k is only a calibration hint and
// the n ceiling does not apply.
//
// ctx cancels the run: iterative methods check it every iteration (and
// within passes on large datasets) and return ctx.Err(). A nil ctx means
// context.Background().
func (c *Clusterer) Fit(ctx context.Context, ds Dataset, k int) (*Model, error) {
	ctx = clustering.Ctx(ctx)
	if err := c.Config.Validate(); err != nil {
		return nil, fmt.Errorf("ucpc: %w", err)
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	reg, ok := clustering.Lookup(c.Algorithm)
	if !ok {
		return nil, fmt.Errorf("ucpc: unknown algorithm %q (valid: %v)", c.Algorithm, AlgorithmNames())
	}
	// Density-based methods treat k as a calibration hint only (the
	// cluster count is data-driven), so k > n stays legal for them —
	// exactly as before the up-front validation existed.
	kCeil := len(ds)
	if reg.KIsHint && k > kCeil {
		kCeil = k
	}
	if err := clustering.ValidateK("ucpc", k, kCeil); err != nil {
		return nil, err
	}
	rep, err := reg.New(c.Config).Cluster(ctx, ds, k, rng.New(c.Config.SeedOrDefault()))
	if err != nil {
		return nil, err
	}
	return newModel(reg, c.Config, ds, rep)
}

// FitFrom warm-starts a new fit on ds from a previously fitted model: ds is
// first assigned to the model's frozen centroids (Model.Assign), and the
// model's algorithm then iterates from that partition instead of a fresh
// random/k-means++ initialization. This is the serving-refresh path — refit
// on grown or drifted data without discarding the learned structure.
//
// The new fit uses the model's algorithm and cluster count with the
// receiver's Config (Clusterer.Algorithm, if set, must agree with the
// model's). Algorithms without warm-start support return
// ErrWarmStartUnsupported.
func (c *Clusterer) FitFrom(ctx context.Context, model *Model, ds Dataset) (*Model, error) {
	ctx = clustering.Ctx(ctx)
	if model == nil {
		return nil, errors.New("ucpc: FitFrom with nil model")
	}
	if c.Algorithm != "" && c.Algorithm != model.algorithm {
		return nil, fmt.Errorf("ucpc: FitFrom algorithm mismatch: clusterer wants %q, model was fitted with %q",
			c.Algorithm, model.algorithm)
	}
	if err := c.Config.Validate(); err != nil {
		return nil, fmt.Errorf("ucpc: %w", err)
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if ds.Dims() != model.dims {
		return nil, fmt.Errorf("ucpc: dataset dim %d vs model dim %d: %w", ds.Dims(), model.dims, ErrDimMismatch)
	}
	k := model.k
	if err := clustering.ValidateK("ucpc", k, len(ds)); err != nil {
		return nil, err
	}
	reg, ok := clustering.Lookup(model.algorithm)
	if !ok {
		return nil, fmt.Errorf("ucpc: unknown algorithm %q (valid: %v)", model.algorithm, AlgorithmNames())
	}
	ws, ok := reg.New(c.Config).(clustering.WarmStarter)
	if !ok {
		return nil, fmt.Errorf("ucpc: %s: %w", model.algorithm, ErrWarmStartUnsupported)
	}
	init, err := model.Assign(ctx, ds)
	if err != nil {
		return nil, err
	}
	rep, err := ws.ClusterFrom(ctx, ds, k, init, rng.New(c.Config.SeedOrDefault()))
	if err != nil {
		return nil, err
	}
	return newModel(reg, c.Config, ds, rep)
}

// Centroid is one frozen cluster prototype of a fitted Model. Every
// prototype kind scores a fresh object o with the same rule,
//
//	score(o, c) = ‖µ(o) − Mean_c‖² + Var_c,
//
// which — up to the additive constant σ²(o) — is ÊD(o, ·) to the U-centroid
// (UCPC family, UAHC, FDB, FOPT), ED(o, ·) to the centroid point (UK-means
// family, Var = 0), ÊD(o, ·) to the mixture centroid (MMV), or ÊD(o, ·) to
// the medoid object (UKmed).
type Centroid struct {
	// Mean is the prototype position (the frozen µ of the U-centroid,
	// cluster mean, mixture centroid, or medoid object).
	Mean []float64
	// Var is the additive variance term of the scoring rule: σ²(C̄) for
	// U-centroids, 0 for centroid points, σ²(C_MM) for mixture centroids,
	// σ²(medoid) for medoids. +Inf marks a cluster with no training
	// members (it can never win an assignment).
	Var float64
	// Size is the cluster's training cardinality (noise excluded).
	Size int
	// Medoid is the training-set index of the representative object for
	// medoid models, -1 otherwise.
	Medoid int
}

// Model is the frozen outcome of one Fit: the training partition and
// report, plus per-cluster prototypes for out-of-sample assignment. A Model
// is immutable and safe for concurrent use — one fitted model can serve
// Assign calls from many goroutines at once.
type Model struct {
	algorithm string
	proto     clustering.Prototype
	cfg       Config
	k, dims   int
	report    *clustering.Report

	means      []float64 // k*dims, row-major prototype positions
	adds       []float64 // k additive variance terms
	sizes      []int     // training cardinality per cluster
	medoids    []int     // training medoid index per cluster; nil unless ProtoMedoid
	hasMembers bool      // at least one cluster has a training member
}

// newModel freezes the per-cluster prototypes of the report's partition.
func newModel(reg clustering.Registration, cfg Config, ds Dataset, rep *clustering.Report) (*Model, error) {
	mom := uncertain.MomentsOf(ds)
	k, m := rep.Partition.K, mom.Dims()
	model := &Model{
		algorithm: reg.Name,
		proto:     reg.Prototype,
		cfg:       cfg,
		k:         k,
		dims:      m,
		report:    rep,
		means:     make([]float64, k*m),
		adds:      make([]float64, k),
		sizes:     rep.Partition.Sizes(),
	}

	for _, s := range model.sizes {
		if s > 0 {
			model.hasMembers = true
			break
		}
	}

	if reg.Prototype == clustering.ProtoMedoid {
		if len(rep.Medoids) != k {
			return nil, fmt.Errorf("ucpc: %s report carries %d medoids for k=%d", reg.Name, len(rep.Medoids), k)
		}
		model.medoids = append([]int(nil), rep.Medoids...)
		for c, i := range model.medoids {
			copy(model.means[c*m:(c+1)*m], mom.Mu(i))
			model.adds[c] = mom.TotalVar(i)
		}
		return model, nil
	}

	// Aggregate Σµ, Σµ₂, Σσ² per cluster (noise assignments excluded).
	sumMu := make([]float64, k*m)
	sumMu2 := make([]float64, k*m)
	sumVar := make([]float64, k)
	for i, c := range rep.Partition.Assign {
		if c < 0 || c >= k {
			continue
		}
		mu, mu2 := mom.Mu(i), mom.Mu2(i)
		row := c * m
		for j := 0; j < m; j++ {
			sumMu[row+j] += mu[j]
			sumMu2[row+j] += mu2[j]
		}
		sumVar[c] += mom.TotalVar(i)
	}
	// Global mean, the position given to empty clusters (paired with an
	// infinite Var so they never win an assignment).
	var global []float64
	for c := 0; c < k; c++ {
		n := float64(model.sizes[c])
		row := model.means[c*m : (c+1)*m]
		if model.sizes[c] == 0 {
			if global == nil {
				global = make([]float64, m)
				for i := 0; i < mom.Len(); i++ {
					mu := mom.Mu(i)
					for j := 0; j < m; j++ {
						global[j] += mu[j]
					}
				}
				for j := 0; j < m; j++ {
					global[j] /= float64(mom.Len())
				}
			}
			copy(row, global)
			model.adds[c] = math.Inf(1)
			continue
		}
		for j := 0; j < m; j++ {
			row[j] = sumMu[c*m+j] / n
		}
		switch reg.Prototype {
		case clustering.ProtoUCentroid:
			// Theorem 2: σ²(C̄) = |C|⁻² Σ σ²(o).
			model.adds[c] = sumVar[c] / (n * n)
		case clustering.ProtoMixture:
			// Lemma 2: σ²(C_MM) = Σ_j [ µ₂(C_MM)_j − µ(C_MM)_j² ].
			var v float64
			for j := 0; j < m; j++ {
				mean := sumMu[c*m+j] / n
				v += sumMu2[c*m+j]/n - mean*mean
			}
			model.adds[c] = v
		default: // ProtoMean: ED scoring has no additive term.
			model.adds[c] = 0
		}
	}
	return model, nil
}

// Algorithm returns the fitted method's name (e.g. "UCPC").
func (m *Model) Algorithm() string { return m.algorithm }

// K returns the number of clusters the model was fitted with. For the
// density-based methods this is the discovered cluster count, which may
// differ from the k requested at Fit time.
func (m *Model) K() int { return m.k }

// Dims returns the dimensionality of the training objects.
func (m *Model) Dims() int { return m.dims }

// Report returns the training run's full report (objective, iterations,
// timings, pruning counters). Shared with the model; do not modify.
func (m *Model) Report() *Report { return m.report }

// Partition returns the training partition. Shared with the model; do not
// modify its Assign slice.
func (m *Model) Partition() Partition { return m.report.Partition }

// Centroids returns the frozen per-cluster prototypes new objects are
// scored against. The Mean slices are copies; callers may keep them.
func (m *Model) Centroids() []Centroid {
	cs := make([]Centroid, m.k)
	for c := range cs {
		mean := make([]float64, m.dims)
		copy(mean, m.means[c*m.dims:(c+1)*m.dims])
		medoid := -1
		if m.medoids != nil {
			medoid = m.medoids[c]
		}
		cs[c] = Centroid{Mean: mean, Var: m.adds[c], Size: m.sizes[c], Medoid: medoid}
	}
	return cs
}

// AssignChunk is how many objects one Model.Assign batch scores between
// context checks: large enough that the per-chunk ctx check and engine
// setup are invisible next to the O(chunk·k·m) scoring work. Exported so
// the ctx-overhead benchmark gate (internal/experiments) measures exactly
// the shipped checks-per-pass count.
const AssignChunk = 8192

// Assign scores objs against the model's frozen prototypes and returns the
// nearest cluster per object — the serving path: no refitting, no state
// change, safe for concurrent callers. Each object is scored against every
// prototype by the same distance kernel the training assignment steps use
// (a one-shot assignment has no later pass that pruning bounds could pay
// off in), fanned over the model's Workers, and ctx is checked between
// chunks of AssignChunk objects.
//
// Objects must match the model's dimensionality (ErrDimMismatch otherwise);
// an empty objs returns an empty, non-nil slice. For centroid-based models
// fitted to convergence, assigning the training set reproduces the training
// partition. A model whose training partition is all noise (possible for
// the density-based methods) has no prototype that can win, so every
// object is assigned Noise.
func (m *Model) Assign(ctx context.Context, objs Dataset) ([]int, error) {
	ctx = clustering.Ctx(ctx)
	if len(objs) == 0 {
		return []int{}, nil
	}
	if err := objs.Validate(); err != nil {
		return nil, err
	}
	if objs.Dims() != m.dims {
		return nil, fmt.Errorf("ucpc: object dim %d vs model dim %d: %w", objs.Dims(), m.dims, ErrDimMismatch)
	}
	out := make([]int, len(objs))
	if !m.hasMembers {
		// Every prototype carries an infinite Var (all-noise training
		// partition): nothing can win, so nothing is served a cluster.
		for i := range out {
			out[i] = Noise
		}
		return out, nil
	}
	for lo := 0; lo < len(objs); lo += AssignChunk {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hi := lo + AssignChunk
		if hi > len(objs) {
			hi = len(objs)
		}
		mom := uncertain.MomentsOf(objs[lo:hi])
		eng := core.NewAssigner(mom, m.k, false)
		eng.SetCenters(m.means, m.adds)
		chunk := out[lo:hi]
		for i := range chunk {
			chunk[i] = -1
		}
		eng.Assign(chunk, m.cfg.Workers)
	}
	return out, nil
}
