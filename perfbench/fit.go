package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"ucpc"
	"ucpc/internal/core"
	"ucpc/internal/uncertain"
)

// lineup is the fit workload's algorithm set: metric key and input size.
// UKmed runs on the first nUKmed objects, because its medoid update is
// quadratic in n.
var lineup = []struct {
	alg, key string
	n        int
}{
	{"UCPC", "ucpc", nFit},
	{"UCPC-Lloyd", "ucpc_lloyd", nFit},
	{"UKM", "ukm", nFit},
	{"MMV", "mmv", nFit},
	{"UKmed", "ukmed", nUKmed},
}

// fitChecked fits alg with k = 16 and the benchmark's iteration cap, and
// checks the outcome: the partition validates and the objective recomputed
// from the partition matches the one the report claims.
func (b *bench) fitChecked(alg string, ds ucpc.Dataset) (*ucpc.Model, error) {
	c := &ucpc.Clusterer{Algorithm: alg, Config: ucpc.Config{Seed: b.seed, MaxIter: maxIter}}
	m, err := c.Fit(context.Background(), ds, kClusters)
	b.op(err == nil, "fit %s: %v", alg, err)
	if err != nil {
		return nil, fmt.Errorf("fit %s: %w", alg, err)
	}
	rep := m.Report()
	err = rep.Partition.Validate()
	b.check("partition_valid", err == nil && len(rep.Partition.Assign) == len(ds),
		"%s: %v (%d of %d objects)", alg, err, len(rep.Partition.Assign), len(ds))
	if err == nil {
		got := recomputeObjective(alg, ds, rep.Partition.Assign, rep.Medoids)
		b.check("objective_matches", math.Abs(got-rep.Objective) <= 1e-9*math.Max(1, math.Abs(got)),
			"%s: report %v, recomputed %v", alg, rep.Objective, got)
	}
	return m, nil
}

// recomputeObjective evaluates each algorithm's own objective anew
// on a partition: Σ J(C) (Theorem 3) for the UCPC family, Σ J_UK(C) for
// UK-means, Σ J_MM(C) for MMVar, and Σ ÊD(o, medoid) for UK-medoids.
func recomputeObjective(alg string, ds ucpc.Dataset, assign, medoids []int) float64 {
	if alg == "UCPC" || alg == "UCPC-Lloyd" {
		return ucpc.Objective(ds, assign, kClusters)
	}
	if alg == "UKmed" {
		mom := uncertain.MomentsOf(ds)
		var t float64
		for i, c := range assign {
			t += mom.EED(i, medoids[c])
		}
		return t
	}
	stats := make([]*core.Stats, kClusters)
	for c := range stats {
		stats[c] = core.NewStats(ds.Dims())
	}
	for i, c := range assign {
		stats[c].Add(ds[i])
	}
	var t float64
	for _, s := range stats {
		if alg == "UKM" {
			t += s.JUK()
		} else {
			t += s.JMM()
		}
	}
	return t
}

// fitStats is one algorithm's fits over a run.
type fitStats struct {
	wall, online, offline []float64
	last                  *ucpc.Report
}

// warmUp fits every algorithm once: first fits are slower than later ones.
func (b *bench) warmUp(ds ucpc.Dataset) error {
	for _, l := range lineup {
		if _, err := b.fitChecked(l.alg, ds[:l.n]); err != nil {
			return err
		}
	}
	return nil
}

// fitCycle runs the lineup once into stats and returns its set-up time
// (the moment store build, uncertain.MomentsOf, plus every fit's off-line
// phase) and the UCPC model.
func (b *bench) fitCycle(ds ucpc.Dataset, stats map[string]*fitStats) (float64, *ucpc.Model, error) {
	t0 := time.Now()
	mom := uncertain.MomentsOf(ds)
	setup := time.Since(t0).Seconds()
	if mom.Len() != len(ds) {
		return 0, nil, fmt.Errorf("moment store holds %d of %d objects", mom.Len(), len(ds))
	}
	var model *ucpc.Model
	for _, l := range lineup {
		f0 := time.Now()
		m, err := b.fitChecked(l.alg, ds[:l.n])
		if err != nil {
			return 0, nil, err
		}
		f1 := time.Now()
		if b.tr != nil {
			b.tr.add("fit."+l.key, 0, b.reqs.Add(1), f0, f1)
		}
		rep := m.Report()
		st := stats[l.key]
		if st == nil {
			st = &fitStats{}
			stats[l.key] = st
		}
		st.wall = append(st.wall, f1.Sub(f0).Seconds())
		st.online = append(st.online, rep.Online.Seconds())
		st.offline = append(st.offline, rep.Offline.Seconds())
		st.last = rep
		setup += rep.Offline.Seconds()
		if l.alg == "UCPC" {
			model = m
		}
	}
	return setup, model, nil
}

// lineupSeconds is fit_s: the sum over the lineup of each algorithm's
// fastest-quartile fit time.
func lineupSeconds(stats map[string]*fitStats) float64 {
	var t float64
	for _, l := range lineup {
		t += lowQuartile(stats[l.key].wall)
	}
	return t
}

// setFitLayers reports each algorithm's Report counts (which repeat
// exactly for a seed) and its median on-line and off-line times.
func (b *bench) setFitLayers(stats map[string]*fitStats) {
	for _, l := range lineup {
		st := stats[l.key]
		p := "fit." + l.key + "."
		b.set(p+"iterations", float64(st.last.Iterations), "count")
		b.set(p+"scanned", float64(st.last.ScannedCandidates), "count")
		b.set(p+"pruned_frac", st.last.PrunedFraction(), "ratio")
		b.set(p+"online_s", median(st.online), "s")
		b.set(p+"offline_s", median(st.offline), "s")
	}
}

// streamPass streams streamN objects (cycling through ds) into a fresh
// StreamClusterer in streamBat-object batches and returns the steady-state
// rate (every batch after the cold-start first one) and the snapshot time.
func (b *bench) streamPass(ds ucpc.Dataset) (objsPerSec float64, snapshot time.Duration, err error) {
	ctx := context.Background()
	sf, err := (&ucpc.StreamClusterer{Config: ucpc.StreamConfig{BatchSize: streamBat, Seed: b.seed}}).Begin(ctx, kClusters)
	if err != nil {
		return 0, 0, err
	}
	batch := make(ucpc.Dataset, 0, streamBat)
	var steady time.Duration
	var steadyObjs, sent int
	for sent < streamN {
		batch = batch[:0]
		for len(batch) < streamBat && sent+len(batch) < streamN {
			batch = append(batch, ds[(sent+len(batch))%len(ds)])
		}
		t0 := time.Now()
		if err := sf.Observe(ctx, batch); err != nil {
			return 0, 0, err
		}
		if sent > 0 {
			steady += time.Since(t0)
			steadyObjs += len(batch)
		}
		sent += len(batch)
	}
	b.check("stream_seen", sf.Seen() == int64(sent), "stream saw %d of %d objects", sf.Seen(), sent)
	t0 := time.Now()
	if _, err := sf.Snapshot(); err != nil {
		return 0, 0, err
	}
	snapshot = time.Since(t0)
	b.op(true, "snapshot")
	return float64(steadyObjs) / steady.Seconds(), snapshot, nil
}

// runFit is the in-process workload: no parsing at all. Each cycle fits
// the five batch algorithms, streams one StreamClusterer pass and makes a
// block of closed-loop 64-object Model.Assign calls on the fitted UCPC
// model; cycles repeat until --seconds have passed, so every metric
// samples the whole run.
func runFit(b *bench) error {
	ds := newSource(b.seed, saltFit).objects(nFit, 1)
	if err := b.warmUp(ds); err != nil {
		return err
	}
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	stats := map[string]*fitStats{}
	var setups, rates, snaps, lat []float64 // rates: seconds per streamed object
	probe := &assignCheck{want: map[int][]int{}}
	deadline := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for cycle := 0; cycle < 3 || time.Now().Before(deadline); cycle++ {
		// Each timed section starts from a collected heap, so one
		// section's garbage is not collected on another's clock.
		runtime.GC()
		setup, model, err := b.fitCycle(ds, stats)
		if err != nil {
			return err
		}
		setups = append(setups, setup)
		runtime.GC()
		rate, snap, err := b.streamPass(ds)
		if err != nil {
			return err
		}
		rates = append(rates, 1/rate)
		snaps = append(snaps, float64(snap.Microseconds()))
		runtime.GC()
		lat = append(lat, b.inProcessAssign(model, ds, probe, 200)...)
	}
	runtime.ReadMemStats(&gc1)

	t := summarize(lat)
	b.set("assign_p50_ms", t.P50, "ms")
	b.set("gen.assign_p99_ms", t.PctVal, "ms")
	b.set("objs_s", 1/lowQuartile(rates), "1/s") // rates holds seconds per object
	b.set("fit_s", lineupSeconds(stats), "s")
	b.set("setup_s", lowQuartile(setups), "s")
	b.phases = append(b.phases, phaseLedger{Name: "model-assign", Sent: t.N, Succeeded: t.N,
		P50Ms: t.P50, TailPct: t.Pct, TailMs: t.PctVal, TailBeyond: t.Beyond})
	rss, err := procStatus(os.Getpid(), "VmHWM")
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", rss, "MiB")

	if !b.traced {
		return nil
	}
	b.setFitLayers(stats)
	b.set("stream.snapshot_us", median(snaps), "us")
	b.set("stream.observe_ns_obj", 1e9*median(rates), "ns")
	b.set("runtime.gc_cycles", float64(gc1.NumGC-gc0.NumGC), "count")
	b.set("runtime.alloc_bytes", float64(gc1.TotalAlloc-gc0.TotalAlloc), "bytes")
	if err := b.daemonProbe(); err != nil {
		return err
	}
	return b.layerSweep(context.Background(), ds)
}

// assignCheck remembers each batch's first assignment: a frozen model is a
// pure function, so every later call on the batch must return the same.
type assignCheck struct {
	want  map[int][]int
	calls int
}

// inProcessAssign times calls closed-loop Model.Assign calls on 64-object
// slices of ds, in milliseconds.
func (b *bench) inProcessAssign(m *ucpc.Model, ds ucpc.Dataset, c *assignCheck, calls int) []float64 {
	ctx := context.Background()
	batches := len(ds) / assignBig
	lat := make([]float64, 0, calls)
	for i := 0; i < calls; i++ {
		j := c.calls % batches
		c.calls++
		objs := ds[j*assignBig : (j+1)*assignBig]
		t0 := time.Now()
		got, err := m.Assign(ctx, objs)
		lat = append(lat, millis(time.Since(t0)))
		if err != nil {
			b.op(false, "Model.Assign: %v", err)
			continue
		}
		if prev, ok := c.want[j]; ok {
			b.check("assign_repeatable", equalInts(prev, got), "batch %d changed between calls", j)
		} else {
			c.want[j] = got
			b.op(true, "Model.Assign")
		}
	}
	return lat
}
