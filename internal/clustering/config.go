package clustering

import (
	"context"
	"fmt"
	"math"
)

// DefaultSeed is the seed used by every entry point when the caller leaves
// Config.Seed (or Options.Seed) at its zero value. Seed 0 itself is not a
// valid run seed — the deterministic RNG reserves it — so the zero value of
// a configuration explicitly means "use DefaultSeed". The cmd/ binaries
// default their -seed flags to this same constant, so a flagless CLI run
// and a zero-valued library run are the same run.
const DefaultSeed uint64 = 1

// Config is the run configuration shared by every clustering algorithm. It
// is threaded through each algorithm's registered constructor (see
// Register), so a single Config value has one meaning for every method —
// there is no per-algorithm field mapping to get wrong.
type Config struct {
	// Workers sizes the worker pool of the parallel phases (assignment
	// steps, distance-matrix builds). 0 means one worker per CPU
	// (GOMAXPROCS). Parallel phases only cover order-independent work, so
	// for a fixed Seed the resulting Partition is identical for every
	// Workers value.
	Workers int
	// Pruning toggles the exact bound-based pruning engine in the
	// assignment and relocation hot loops (default PruneAuto = on).
	// Pruning is provably exact: the partition is identical either way.
	Pruning PruneMode
	// MaxIter caps the iterations of iterative methods (0 = per-method
	// default, typically 100).
	MaxIter int
	// Seed drives all of the run's randomness. 0 means DefaultSeed; every
	// other value is used verbatim.
	Seed uint64
	// Progress, when non-nil, is invoked after every outer iteration of
	// the iterative methods with the pass index, the current objective
	// value (NaN where the method defines none), and the number of objects
	// that changed cluster during the pass. The callback runs on the
	// clustering goroutine: keep it cheap, and do not retain the event's
	// slices (there are none) or call back into the model.
	Progress ProgressFunc
}

// Validate checks the configuration for values no run could mean: negative
// counts and unknown enum values. Zero values are always valid (they mean
// "default"). Violations return a wrapped ErrBadConfig naming the field;
// every fitting entry point calls this before touching data.
func (c Config) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("clustering: negative Workers %d: %w", c.Workers, ErrBadConfig)
	}
	if c.MaxIter < 0 {
		return fmt.Errorf("clustering: negative MaxIter %d: %w", c.MaxIter, ErrBadConfig)
	}
	if c.Pruning < PruneAuto || c.Pruning > PruneOff {
		return fmt.Errorf("clustering: unknown Pruning mode %d: %w", c.Pruning, ErrBadConfig)
	}
	return nil
}

// SeedOrDefault resolves Config.Seed: 0 means DefaultSeed.
func (c Config) SeedOrDefault() uint64 {
	if c.Seed == 0 {
		return DefaultSeed
	}
	return c.Seed
}

// StreamConfig configures the mini-batch streaming engine behind
// ucpc.StreamClusterer. Like Config, one StreamConfig value has a single
// meaning everywhere it is threaded.
type StreamConfig struct {
	// BatchSize is the mini-batch chunk size Observe splits its input
	// into (default 4096). Each chunk is scored against the current
	// centroids as one unit and then folded into the per-cluster
	// statistics.
	BatchSize int
	// Decay is the per-batch exponential forgetting rate in [0, 1):
	// before a batch is folded in, every cluster's sufficient statistics
	// are scaled by (1 − Decay). 0 means no forgetting — centroids
	// converge to the cumulative weighted mean, the classic mini-batch
	// k-means 1/n_c learning-rate schedule. Positive values bound the
	// effective memory to about 1/Decay batches, letting centroids track
	// drifting streams at the cost of extra variance.
	Decay float64
	// MaxBatches caps the number of mini-batches a stream fit ingests
	// over its lifetime (0 = unlimited). Once the cap is reached, Observe
	// rejects further input with a wrapped ErrStreamBudget.
	MaxBatches int
	// Workers sizes the per-batch assignment worker pool (0 = one worker
	// per CPU). As with Config.Workers, parallel phases cover only
	// order-independent work, so the fitted centroids are identical for
	// every worker count. The zero-allocation steady-state guarantee of
	// Observe holds for Workers = 1 (the pool spawn itself allocates).
	Workers int
	// Seed drives the k-means++ seeding of the initial centroids
	// (0 = DefaultSeed).
	Seed uint64
}

// Validate checks the streaming configuration: a negative BatchSize,
// MaxBatches, or Workers, or a Decay outside
// [0, 1) returns a wrapped ErrBadConfig naming the field. Zero values are
// always valid (they mean "default").
func (c StreamConfig) Validate() error {
	if c.BatchSize < 0 {
		return fmt.Errorf("clustering: negative BatchSize %d: %w", c.BatchSize, ErrBadConfig)
	}
	if c.Decay < 0 || c.Decay >= 1 || math.IsNaN(c.Decay) {
		return fmt.Errorf("clustering: Decay %v outside [0, 1): %w", c.Decay, ErrBadConfig)
	}
	if c.MaxBatches < 0 {
		return fmt.Errorf("clustering: negative MaxBatches %d: %w", c.MaxBatches, ErrBadConfig)
	}
	if c.Workers < 0 {
		return fmt.Errorf("clustering: negative Workers %d: %w", c.Workers, ErrBadConfig)
	}
	return nil
}

// BatchSizeOrDefault resolves BatchSize: 0 means 4096.
func (c StreamConfig) BatchSizeOrDefault() int {
	if c.BatchSize <= 0 {
		return 4096
	}
	return c.BatchSize
}

// SeedOrDefault resolves Seed: 0 means DefaultSeed.
func (c StreamConfig) SeedOrDefault() uint64 {
	if c.Seed == 0 {
		return DefaultSeed
	}
	return c.Seed
}

// ProgressEvent is one per-iteration report of an iterative algorithm.
type ProgressEvent struct {
	// Algorithm is the reporting method's short name (e.g. "UCPC").
	Algorithm string
	// Iteration is the 1-based outer iteration (pass) index.
	Iteration int
	// Objective is the algorithm's own objective after the pass (NaN when
	// the method defines none, e.g. the sample-based basic UK-means).
	Objective float64
	// Moves is the number of objects that changed cluster during the pass.
	Moves int
}

// ProgressFunc observes per-iteration progress; see Config.Progress.
type ProgressFunc func(ProgressEvent)

// Emit invokes the callback if it is non-nil.
func (f ProgressFunc) Emit(algorithm string, iteration int, objective float64, moves int) {
	if f != nil {
		f(ProgressEvent{Algorithm: algorithm, Iteration: iteration, Objective: objective, Moves: moves})
	}
}

// Ctx normalizes a caller-supplied context: nil means context.Background(),
// so algorithm loops can check ctx.Err() unconditionally.
func Ctx(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}
