package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"ucpc"
)

// segments is how many slices the serve workloads cut their measured time
// into. Each metric samples every slice, so a box whose speed drifts over
// seconds weighs the same in every run.
const segments = 5

// servedModel fits the model the serve workloads install with PUT /model:
// UCPC, k = 16, on nTrain N-token objects.
func (b *bench) servedModel() (*ucpc.Model, []byte, error) {
	m, err := b.fitChecked("UCPC", newSource(b.seed, saltTrain).objects(nTrain, 1))
	if err != nil {
		return nil, nil, err
	}
	ucpm, err := m.MarshalBinary()
	return m, ucpm, err
}

// lineupFitSeconds is fit_s on the serve workloads: the fit workload's
// lineup on the fit workload's inputs, for serveFitCycles cycles after a
// warm-up, summed over the algorithms' fastest-quartile times. It runs once
// the daemon has stopped, so it shares the box with nothing.
func (b *bench) lineupFitSeconds() (float64, error) {
	ds := newSource(b.seed, saltFit).objects(nFit, 1)
	if err := b.warmUp(ds); err != nil {
		return 0, err
	}
	stats := map[string]*fitStats{}
	for i := 0; i < serveFitCycles; i++ {
		runtime.GC()
		if _, _, err := b.fitCycle(ds, stats); err != nil {
			return 0, err
		}
	}
	return lineupSeconds(stats), nil
}

// setupDaemon starts the daemon setups times, each time timing from exec
// until every tenant holds its first model, and keeps the last daemon
// running. setup_s is the median.
func (b *bench) setupDaemon(setups int, specs []tenantSpec, ucpm []byte) (*daemon, error) {
	b.daemonCmd = append([]string{"ucpcd"}, daemonFlags()...)
	var times []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		d, err := startDaemon(b.ucpcd)
		if err != nil {
			return nil, err
		}
		err = func() error {
			for _, s := range specs {
				if err := d.createTenant(s); err != nil {
					return err
				}
				info, err := d.putModel(s.ID, ucpm)
				if err != nil {
					return err
				}
				if !info.HasModel || info.ModelVersion != 1 {
					return fmt.Errorf("tenant %s: model not installed after PUT", s.ID)
				}
			}
			return nil
		}()
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			d.stop()
			return nil, err
		}
		if i == setups-1 {
			b.set("setup_s", median(times), "s")
			return d, nil
		}
		d.stop()
	}
	return nil, fmt.Errorf("no setups")
}

// finishDaemon reads the daemon's peak RSS, takes a last quiet scrape for
// the conservation laws, and stops it.
func (b *bench) finishDaemon(d *daemon) error {
	defer d.stop()
	rss, err := procStatus(d.pid(), "VmHWM")
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", rss, "MiB")
	s, err := d.scrape()
	if err != nil {
		return err
	}
	b.conservation("end", s)
	return nil
}

// phaseRun accumulates one phase over the run's segments: its shots, the
// daemon's counter deltas, and how long it was offered load.
type phaseRun struct {
	name     string
	shots    []shot
	traced   []shot // the shots of traced segments
	untraced []shot
	deltas   scrape
	seconds  float64
}

// segment drives one open-loop slice of the phase against a tenant,
// bracketed by scrapes whose counter laws and refusal counts it checks.
func (p *phaseRun) segment(b *bench, d *daemon, tenant string, sched schedule, window time.Duration, pool []payload) error {
	before, err := d.scrape()
	if err != nil {
		return err
	}
	b.conservation(p.name+" before", before)
	shots := b.openLoop(d, "/v1/tenants/"+tenant+"/assign", sched, pool)
	after, err := d.scrape()
	if err != nil {
		return err
	}
	b.conservation(p.name+" after", after)
	n429, n413 := refusals(shots)
	b.refusalsMatch(p.name, before, after, n429, n413, 0)
	p.add(b, shots, before, after, window)
	return nil
}

func (p *phaseRun) add(b *bench, shots []shot, before, after scrape, window time.Duration) {
	if p.deltas == nil {
		p.deltas = scrape{}
	}
	for k, v := range after {
		p.deltas[k] += v - before[k]
	}
	p.shots = append(p.shots, shots...)
	if b.tr != nil {
		p.traced = append(p.traced, shots...)
	} else {
		p.untraced = append(p.untraced, shots...)
	}
	p.seconds += window.Seconds()
}

// finish tallies the phase's ledger and latency summary.
func (p *phaseRun) finish(b *bench) *phaseLedger {
	l := &phaseLedger{Name: p.name, Seconds: p.seconds}
	b.tally(l, p.shots)
	lat, late := latencies(p.shots)
	t := summarize(lat)
	l.P50Ms, l.P90Ms, l.P95Ms = t.P50, t.P90, t.P95
	l.TailPct, l.TailMs, l.TailBeyond = t.Pct, t.PctVal, t.Beyond
	l.LateP99Ms = summarize(late).PctVal
	l.DaemonP99Ms = histP99(p.deltas)
	b.phases = append(b.phases, *l)
	return l
}

// overhead is the tracing overhead: median latency of the traced segments
// minus that of the untraced ones.
func (p *phaseRun) overhead() float64 {
	lu, _ := latencies(p.untraced)
	lt, _ := latencies(p.traced)
	return median(lt) - median(lu)
}

// runServeAssign is the read path: a k = 16 UCPC model behind PUT /model,
// 64-object N-token assign batches at fixed rates. In every segment the
// light phase offers lightRate to an admission-off tenant, then the
// overload phase offers overloadRate to an admission-on tenant, above its
// auto-sized bucket rate and below what two connections carry.
func runServeAssign(b *bench) error {
	pool, err := newSource(b.seed, saltAssign).payloads(48, assignBig, allNormal)
	if err != nil {
		return err
	}
	_, ucpm, err := b.servedModel()
	if err != nil {
		return err
	}
	specs := []tenantSpec{
		{ID: "light", Algorithm: "UCPC", K: kClusters, Seed: b.seed, Admission: "off"},
		{ID: "over", Algorithm: "UCPC", K: kClusters, Seed: b.seed, Admission: "on"},
	}
	d, err := b.setupDaemon(9, specs, ucpm)
	if err != nil {
		return err
	}
	defer d.stop()
	models := modelCache{}
	models.fetch(b, d, "light", 1)

	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	seg := time.Duration(b.seconds / segments * float64(time.Second))
	lightWin := time.Duration(lightShare * float64(seg))
	overWin := seg - lightWin
	light := &phaseRun{name: "light"}
	over := &phaseRun{name: "overload"}
	tr := b.tr
	for i := 0; i < segments; i++ {
		// Traced runs trace the light phase of the later segments only:
		// the earlier ones are the untraced baseline for the overhead.
		b.tr = nil
		if i >= segments/2 {
			b.tr = tr
		}
		sched := fixedSchedule(time.Now().Add(20*time.Millisecond), lightRate, lightWin)
		if err := light.segment(b, d, "light", sched, lightWin, pool); err != nil {
			return err
		}
		// The overload phase is never traced: its per-layer figures are the
		// daemon's admission counters.
		b.tr = nil
		if i == 0 {
			// Train the cost model with paced sequential (uncontended)
			// requests before the first overload.
			for j := 0; j < 20; j++ {
				code, _, _, err := d.do("POST", "/v1/tenants/over/assign", pool[j%len(pool)].body)
				b.op(err == nil && (code == 200 || code == 429), "overload warm-up: status %d err %v", code, err)
				time.Sleep(25 * time.Millisecond)
			}
		}
		sched = fixedSchedule(time.Now().Add(20*time.Millisecond), overloadRate, overWin)
		if err := over.segment(b, d, "over", sched, overWin, pool); err != nil {
			return err
		}
	}
	b.tr = tr
	runtime.ReadMemStats(&gc1)
	ll := light.finish(b)
	ol := over.finish(b)
	b.verifyAssignments("light", light.shots, pool, models)
	b.verifyAssignments("overload", over.shots, pool, models)
	var good float64
	for _, s := range over.shots {
		if s.err == nil && s.code == 200 && s.latency() <= p99Budget {
			good += float64(len(pool[s.payload].objs))
		}
	}
	b.set("assign_p50_ms", ll.P50Ms, "ms")
	b.set("gen.assign_p99_ms", ll.TailMs, "ms")
	b.set("objs_s", good/ol.Seconds, "1/s")

	if b.traced {
		b.set("trace.overhead_ms", light.overhead(), "ms")
		b.set("serve.admit_ratio", over.deltas[`ucpcd_admitted_total{route="assign"}`]/
			over.deltas[`ucpcd_admission_attempts_total{route="assign"}`], "ratio")
		b.set("serve.shed_429", float64(ol.Refused429), "count")
		b.set("serve.shed_413", float64(ol.Refused413), "count")
		b.set("serve.hist_p99_ms", ll.DaemonP99Ms, "ms")
		b.set("gen.late_ms_p99", ll.LateP99Ms, "ms")
		b.set("runtime.gc_cycles", float64(gc1.NumGC-gc0.NumGC), "count")
		b.set("runtime.alloc_bytes", float64(gc1.TotalAlloc-gc0.TotalAlloc), "bytes")
		if err := b.replay(light.traced, pool, models); err != nil {
			return err
		}
		b.stageSplit(assignBig, poolBytes(pool))
		if err := b.shedProbe(d, pool, ucpm, 100); err != nil {
			return err
		}
		b.set("serve.observe_429", 0, "count")
		b.set("serve.queue_depth_max", 0, "count")
		if err := b.swapProbe(d, "light", ucpm, models); err != nil {
			return err
		}
	}
	if err := b.finishDaemon(d); err != nil {
		return err
	}
	if b.traced {
		return b.layerSweep(context.Background(), newSource(b.seed, saltFit).objects(nFit, 1))
	}
	fitS, err := b.lineupFitSeconds()
	b.set("fit_s", fitS, "s")
	return err
}

// swapProbe times hot swaps by model upload: five PUT /model round trips.
func (b *bench) swapProbe(d *daemon, tenant string, ucpm []byte, models modelCache) error {
	var times []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		info, err := d.putModel(tenant, ucpm)
		if err != nil {
			return err
		}
		times = append(times, millis(time.Since(t0)))
		models.fetch(b, d, tenant, info.ModelVersion)
	}
	b.set("serve.swap_ms", median(times), "ms")
	return nil
}
