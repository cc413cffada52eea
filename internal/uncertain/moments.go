package uncertain

import (
	"fmt"
	"math"

	"ucpc/internal/vec"
)

// Moments is a structure-of-arrays view of a Dataset's closed-form moments:
// the per-dimension expected values µ, raw second moments µ₂, and variances
// σ² of every object, packed into three contiguous row-major float64 slices
// (row i holds object i), plus the scalar total variances σ²(o) of eq. 6.
//
// The clustering hot paths — ÊD evaluations (Lemma 3), ED evaluations
// (eq. 8), the Ψ/Φ/S statistics updates of Corollary 1, and the per-
// iteration assignment loops — only ever need these numbers. Reading them
// from one flat allocation instead of chasing per-object pointers keeps the
// inner loops sequential in memory (hardware-prefetcher friendly) and makes
// the assignment step trivially parallelizable: workers index disjoint row
// ranges of immutable slices.
//
// A Moments view built by MomentsOf is immutable after construction and
// safe for concurrent readers. Objects are immutable too (their moment
// caches are fixed at construction), so a view never goes stale.
//
// A store built by NewMoments is *growable*: Append adds rows and Reset
// drops them while keeping the backing capacity, which is what the
// mini-batch streaming engine (internal/stream) uses to recycle one
// resident window across batches without per-batch allocations. A growable
// store is owned by a single writer; it must not be mutated while another
// goroutine reads it.
type Moments struct {
	n, m     int
	mu       []float64 // n*m, row-major
	mu2      []float64 // n*m, row-major
	sigma2   []float64 // n*m, row-major
	totalVar []float64 // n

	// Precomputed per-object scalars consumed by the incremental relocation
	// scoring engine (internal/core.RelocEngine): with these, a candidate
	// add/remove score needs only one µ(o)·S dot product beyond O(1) work.
	muNorm2 []float64 // n, ‖µ(o_i)‖²
	muNorm  []float64 // n, ‖µ(o_i)‖
	mu2Tot  []float64 // n, Σ_j (µ₂)_j(o_i)
}

// NewMoments returns an empty, growable store for m-dimensional rows.
func NewMoments(m int) *Moments {
	if m <= 0 {
		panic(fmt.Sprintf("uncertain: NewMoments with dim %d", m))
	}
	return &Moments{m: m}
}

// Append packs o's moment vectors as the store's next row and returns that
// row's index. Rows keep their indices for the lifetime of the resident
// window (until Reset); growth is amortized allocation-free once the
// backing capacity has warmed up to the largest window seen.
func (mo *Moments) Append(o *Object) int {
	if o.Dims() != mo.m {
		panic(fmt.Sprintf("uncertain: Append object with dim %d, want %d", o.Dims(), mo.m))
	}
	i := mo.n
	mo.mu = append(mo.mu, o.mu...)
	mo.mu2 = append(mo.mu2, o.mu2...)
	mo.sigma2 = append(mo.sigma2, o.sigma2...)
	mo.totalVar = append(mo.totalVar, o.totalVar)
	nrm2 := vec.SqNormBlock(o.mu)
	var m2t float64
	for j := 0; j < mo.m; j++ {
		m2t += o.mu2[j]
	}
	mo.muNorm2 = append(mo.muNorm2, nrm2)
	mo.muNorm = append(mo.muNorm, math.Sqrt(nrm2))
	mo.mu2Tot = append(mo.mu2Tot, m2t)
	mo.n++
	return i
}

// Reset drops every resident row while keeping the backing capacity, so the
// next window's Appends reuse the same memory.
func (mo *Moments) Reset() {
	mo.n = 0
	mo.mu = mo.mu[:0]
	mo.mu2 = mo.mu2[:0]
	mo.sigma2 = mo.sigma2[:0]
	mo.totalVar = mo.totalVar[:0]
	mo.muNorm2 = mo.muNorm2[:0]
	mo.muNorm = mo.muNorm[:0]
	mo.mu2Tot = mo.mu2Tot[:0]
}

// Bytes returns the resident footprint of the backing arrays (capacity, not
// length) in bytes — the peak-RSS proxy the scale experiment reports for
// the streaming moment store.
func (mo *Moments) Bytes() int64 {
	c := cap(mo.mu) + cap(mo.mu2) + cap(mo.sigma2) +
		cap(mo.totalVar) + cap(mo.muNorm2) + cap(mo.muNorm) + cap(mo.mu2Tot)
	return int64(c) * 8
}

// MomentsOf packs the moment vectors of every object of ds into a fresh
// structure-of-arrays view. Cost: O(n·m) copies, three allocations.
func MomentsOf(ds Dataset) *Moments {
	n := len(ds)
	m := ds.Dims()
	// One backing slab for the three row stores and one for the scalar
	// columns: a view is built on every Cluster call's online path, and a
	// single zeroed allocation faults far fewer fresh pages than seven.
	// Full slice expressions keep the caps disjoint so Bytes() still sums
	// the true footprint.
	rows := make([]float64, 3*n*m)
	scal := make([]float64, 4*n)
	mo := &Moments{
		n:        n,
		m:        m,
		mu:       rows[0 : n*m : n*m],
		mu2:      rows[n*m : 2*n*m : 2*n*m],
		sigma2:   rows[2*n*m : 3*n*m : 3*n*m],
		totalVar: scal[0:n:n],
		muNorm2:  scal[n : 2*n : 2*n],
		muNorm:   scal[2*n : 3*n : 3*n],
		mu2Tot:   scal[3*n : 4*n : 4*n],
	}
	for i, o := range ds {
		if o.Dims() != m {
			panic(fmt.Sprintf("uncertain: MomentsOf object %d has dim %d, want %d", i, o.Dims(), m))
		}
		copy(mo.mu[i*m:(i+1)*m], o.mu)
		copy(mo.mu2[i*m:(i+1)*m], o.mu2)
		copy(mo.sigma2[i*m:(i+1)*m], o.sigma2)
		mo.totalVar[i] = o.totalVar
		nrm2 := vec.SqNormBlock(o.mu)
		var m2t float64
		for j := 0; j < m; j++ {
			m2t += o.mu2[j]
		}
		mo.muNorm2[i] = nrm2
		mo.muNorm[i] = math.Sqrt(nrm2)
		mo.mu2Tot[i] = m2t
	}
	return mo
}

// Len returns the number of objects n.
func (mo *Moments) Len() int { return mo.n }

// Dims returns the dimensionality m.
func (mo *Moments) Dims() int { return mo.m }

// Mu returns object i's expected-value row µ(o_i). The slice aliases the
// store; callers must not modify it.
func (mo *Moments) Mu(i int) []float64 { return mo.mu[i*mo.m : (i+1)*mo.m : (i+1)*mo.m] }

// Mu2 returns object i's second-moment row µ₂(o_i). Shared; do not modify.
func (mo *Moments) Mu2(i int) []float64 { return mo.mu2[i*mo.m : (i+1)*mo.m : (i+1)*mo.m] }

// Sigma2 returns object i's variance row σ²(o_i). Shared; do not modify.
func (mo *Moments) Sigma2(i int) []float64 { return mo.sigma2[i*mo.m : (i+1)*mo.m : (i+1)*mo.m] }

// TotalVar returns the scalar total variance σ²(o_i) = Σ_j (σ²)_j(o_i).
func (mo *Moments) TotalVar(i int) float64 { return mo.totalVar[i] }

// MuNorm2 returns ‖µ(o_i)‖², precomputed at construction.
func (mo *Moments) MuNorm2(i int) float64 { return mo.muNorm2[i] }

// MuNorm returns ‖µ(o_i)‖, precomputed at construction.
func (mo *Moments) MuNorm(i int) float64 { return mo.muNorm[i] }

// Mu2Tot returns the scalar raw second moment Σ_j (µ₂)_j(o_i), precomputed
// at construction.
func (mo *Moments) Mu2Tot(i int) float64 { return mo.mu2Tot[i] }

// EED returns the squared expected distance ÊD(o_i, o_j) of Lemma 3,
// computed entirely from the flat store:
//
//	ÊD = ‖µ(o_i) − µ(o_j)‖² + σ²(o_i) + σ²(o_j)
func (mo *Moments) EED(i, j int) float64 {
	a := mo.mu[i*mo.m : (i+1)*mo.m]
	b := mo.mu[j*mo.m : (j+1)*mo.m]
	return vec.SqDistBlock(a, b) + mo.totalVar[i] + mo.totalVar[j]
}

// ED returns the expected squared distance ED(o_i, y) of eq. 8 to a
// deterministic point y.
func (mo *Moments) ED(i int, y []float64) float64 {
	return vec.SqDistBlock(mo.mu[i*mo.m:(i+1)*mo.m], y) + mo.totalVar[i]
}

// NearestByED returns the index in centers of the point minimizing
// ED(o_i, centers[c]) and that minimal value, breaking ties toward the
// lowest index so the result is order-deterministic.
func (mo *Moments) NearestByED(i int, centers [][]float64) (int, float64) {
	best, bestD := 0, mo.ED(i, centers[0])
	for c := 1; c < len(centers); c++ {
		if d := mo.ED(i, centers[c]); d < bestD {
			best, bestD = c, d
		}
	}
	return best, bestD
}
