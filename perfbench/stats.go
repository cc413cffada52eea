package main

import (
	"math"
	"sort"
	"time"
)

// tail is a latency summary: the median and the highest percentile that
// still has at least minBeyond samples above it (p99 once there are 1000
// samples), with the sample count it rests on.
type tail struct {
	N      int
	P50    float64
	P90    float64
	P95    float64
	Pct    float64 // the tail percentile actually reported, e.g. 99
	PctVal float64
	Beyond int // samples strictly above the tail rank
}

const minBeyond = 10

// summarize sorts a copy of xs and reports its median and tail. The tail
// rank is the p99 rank, lowered until at least minBeyond samples lie beyond
// it; with fewer than 2·minBeyond+1 samples it falls back to the median.
func summarize(xs []float64) tail {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	t := tail{N: n}
	if n == 0 {
		return t
	}
	t.P50 = quantile(s, 0.5)
	t.P90 = quantile(s, 0.9)
	t.P95 = quantile(s, 0.95)
	idx := int(math.Ceil(0.99*float64(n))) - 1
	if idx > n-1-minBeyond {
		idx = n - 1 - minBeyond
	}
	if mid := (n - 1) / 2; idx < mid {
		idx = mid
	}
	t.PctVal = s[idx]
	t.Beyond = n - 1 - idx
	t.Pct = 100 * float64(idx+1) / float64(n)
	return t
}

// quantile is the linear-interpolation quantile of sorted s.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// lowQuartile is the 25th percentile. Repeated work measured on a shared
// box is only ever slowed by interference, so its fastest quartile is the
// steadiest estimate of the work's own cost.
func lowQuartile(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.25)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// schedule is an open-loop arrival schedule: request i is due at
// start + offs[i], whether or not earlier requests have finished.
type schedule struct {
	start time.Time
	offs  []time.Duration
}

// fixedSchedule spaces arrivals 1/rate apart over window, the way a
// constant-throughput load generator does: arrivals never bunch up, so the
// tail measures the system, not the arrival process.
func fixedSchedule(start time.Time, rate float64, window time.Duration) schedule {
	s := schedule{start: start}
	period := float64(time.Second) / rate
	for i := 0; ; i++ {
		off := time.Duration(float64(i) * period)
		if off >= window {
			return s
		}
		s.offs = append(s.offs, off)
	}
}

func (s schedule) due(i int) time.Time { return s.start.Add(s.offs[i]) }

func (s schedule) len() int { return len(s.offs) }

// timing is one open-loop request: when it was due, when the generator
// actually sent it, and when its response had been read.
type timing struct {
	due, sent, done time.Time
}

// latency is measured from the due time, so a stall that delays later
// sends is charged to every request it delayed.
func (t timing) latency() time.Duration { return t.done.Sub(t.due) }

// late is how far behind its schedule the generator sent the request.
func (t timing) late() time.Duration {
	if d := t.sent.Sub(t.due); d > 0 {
		return d
	}
	return 0
}

func millis(d time.Duration) float64 { return float64(d) / 1e6 }
