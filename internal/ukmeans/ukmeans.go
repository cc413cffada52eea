// Package ukmeans implements the UK-means family of algorithms for
// clustering uncertain objects (paper §2.2):
//
//   - UKMeans: the fast variant of Lee et al. [14] that reduces UK-means to
//     K-means via the expected-distance identity ED(o,c) = ED(o,µ(o)) +
//     ‖c−µ(o)‖² (eq. 8), with O(I·k·n·m) online complexity.
//   - Basic: the basic UK-means of Chau et al. [4] that approximates the
//     expected distance ED_d(o,c) by averaging a metric over a sample cloud
//     drawn from each object's pdf, with O(I·S·k·n·m) complexity.
//   - MinMaxBB and VDBiP: pruning wrappers around Basic that avoid
//     redundant expected-distance computations using MBR min/max-distance
//     bounds [16] and Voronoi bisector tests [11] respectively, both
//     tightened with the cluster-shift technique [17].
package ukmeans

import (
	"ucpc/internal/clustering"
	"ucpc/internal/core"
	"ucpc/internal/rng"
	"ucpc/internal/uncertain"
	"ucpc/internal/vec"
)

// UKMeans is the fast UK-means. It is defined in package core, where it
// shares one Lloyd loop with UCPC-Lloyd: both minimise ‖µ(o) − y_c‖² + v_c,
// UK-means with v_c = 0.
type UKMeans = core.UKMeans

// initialCenters seeds k centroid points from the expected values of
// k-means++-selected objects.
func initialCenters(ds uncertain.Dataset, k int, r *rng.RNG) []vec.Vector {
	idx := clustering.KMeansPPCenters(ds, k, r)
	centers := make([]vec.Vector, k)
	for c, i := range idx {
		centers[c] = vec.Clone(ds[i].Mean())
	}
	return centers
}

func validate(ds uncertain.Dataset, k int) error {
	if err := ds.Validate(); err != nil {
		return err
	}
	return clustering.ValidateK("ukmeans", k, len(ds))
}
