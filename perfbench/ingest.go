package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// ingestRun is the observe side of serve-ingest, summed over segments.
type ingestRun struct {
	accepted   int64
	nextSwap   int64
	observe429 int
	failed     int
	posts      int
	queueMax   int64
	swapMs     []float64
	busy       time.Duration // Σ from a segment's first POST until caught up
}

// runServeIngest is writes beside reads. In every segment one connection
// streams 500-object observe chunks (U, N and E tokens in equal thirds) as
// fast as they are accepted, triggering a snapshot hot swap every swapEvery
// accepted objects, while the other sends single-object assigns at
// trickleRate; the segment ends once the tenant has
// folded every accepted object into its stream.
func runServeIngest(b *bench) error {
	chunks, err := newSource(b.seed, saltIngest).payloads(16, ingestSize, mixedThirds)
	if err != nil {
		return err
	}
	singles, err := newSource(b.seed, saltTrickle).payloads(240, 1, mixedThirds)
	if err != nil {
		return err
	}
	_, ucpm, err := b.servedModel()
	if err != nil {
		return err
	}
	const id = "ingest"
	spec := tenantSpec{ID: id, Algorithm: "UCPC", K: kClusters, Seed: b.seed, Admission: "off"}
	d, err := b.setupDaemon(9, []tenantSpec{spec}, ucpm)
	if err != nil {
		return err
	}
	defer d.stop()
	models := modelCache{}
	models.fetch(b, d, id, 1)

	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	seg := time.Duration(b.seconds / segments * float64(time.Second))
	trickle := &phaseRun{name: "trickle"}
	ing := &ingestRun{nextSwap: swapEvery}
	tr := b.tr
	for i := 0; i < segments; i++ {
		b.tr = nil
		if i >= segments/2 {
			b.tr = tr
		}
		if err := b.ingestSegment(d, id, seg, chunks, singles, models, trickle, ing); err != nil {
			return err
		}
	}
	b.tr = tr
	runtime.ReadMemStats(&gc1)
	l := trickle.finish(b)
	b.phases = append(b.phases, phaseLedger{
		Name: "observe", Sent: ing.posts, Succeeded: ing.posts - ing.observe429 - ing.failed,
		Refused429: ing.observe429, Failed: ing.failed, Seconds: ing.busy.Seconds(),
	})
	b.verifyAssignments("trickle", trickle.shots, singles, models)
	b.set("assign_p50_ms", l.P50Ms, "ms")
	b.set("gen.assign_p99_ms", l.TailMs, "ms")
	b.set("objs_s", float64(ing.accepted)/ing.busy.Seconds(), "1/s")

	if b.traced {
		b.set("trace.overhead_ms", trickle.overhead(), "ms")
		b.set("serve.observe_429", float64(ing.observe429), "count")
		b.set("serve.queue_depth_max", float64(ing.queueMax), "count")
		b.set("serve.swap_ms", median(ing.swapMs), "ms")
		b.set("serve.hist_p99_ms", l.DaemonP99Ms, "ms")
		// The ingest tenant has admission off: every attempt is admitted.
		b.set("serve.admit_ratio", trickle.deltas[`ucpcd_admitted_total{route="assign"}`]/
			trickle.deltas[`ucpcd_admission_attempts_total{route="assign"}`], "ratio")
		b.set("serve.shed_429", float64(l.Refused429), "count")
		b.set("serve.shed_413", float64(l.Refused413), "count")
		b.set("gen.late_ms_p99", l.LateP99Ms, "ms")
		b.set("runtime.gc_cycles", float64(gc1.NumGC-gc0.NumGC), "count")
		b.set("runtime.alloc_bytes", float64(gc1.TotalAlloc-gc0.TotalAlloc), "bytes")
		if err := b.replay(trickle.traced, singles, models); err != nil {
			return err
		}
		b.stageSplit(1, poolBytes(singles))
		if err := b.shedProbe(d, singles, ucpm, 500); err != nil {
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

// ingestSegment runs the observe stream and the assign trickle side by side
// for one segment, then waits until the tenant has folded every accepted
// object into its stream, and checks the daemon's counters over it.
func (b *bench) ingestSegment(d *daemon, id string, seg time.Duration, chunks, singles []payload,
	models modelCache, trickle *phaseRun, ing *ingestRun) error {
	before, err := d.scrape()
	if err != nil {
		return err
	}
	b.conservation("ingest before", before)
	info0, err := d.tenant(id)
	if err != nil {
		return err
	}
	sched := fixedSchedule(time.Now().Add(20*time.Millisecond), trickleRate, seg)
	var shots []shot
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		shots = b.openLoopOne(d, "/v1/tenants/"+id+"/assign", sched, singles)
	}()
	accepted0, rejected0 := ing.accepted, ing.observe429
	first := time.Now()
	b.observeStream(d, id, sched.start.Add(seg), chunks, models, ing)
	wg.Wait()
	sent := ing.accepted - accepted0
	deadline := time.Now().Add(60 * time.Second)
	for ing.failed == 0 {
		info, err := d.tenant(id)
		if err != nil {
			return err
		}
		got := info.Ingested - info0.Ingested
		if got >= sent || time.Now().After(deadline) {
			b.check("ingested_equals_accepted", got == sent, "ingested %d, accepted %d", got, sent)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	ing.busy += time.Since(first)
	after, err := d.scrape()
	if err != nil {
		return err
	}
	b.conservation("ingest after", after)
	n429, n413 := refusals(shots)
	b.refusalsMatch("ingest", before, after, n429, n413, ing.observe429-rejected0)
	trickle.add(b, shots, before, after, seg)
	return nil
}

// openLoopOne is openLoop on a single worker: the trickle owns one of the
// two connections, the observe stream the other.
func (b *bench) openLoopOne(d *daemon, path string, sched schedule, pool []payload) []shot {
	shots := make([]shot, sched.len())
	for i := range shots {
		s := &shots[i]
		s.payload = i % len(pool)
		s.due = sched.due(i)
		if wait := time.Until(s.due); wait > 0 {
			time.Sleep(wait)
		}
		b.fire(d, path, s, pool)
	}
	return shots
}

// observeStream posts chunks back to back until stop, swapping the served
// model by snapshot every swapEvery accepted objects. A refused chunk (429,
// queue full) is retried after a short pause.
func (b *bench) observeStream(d *daemon, id string, stop time.Time, chunks []payload, models modelCache, ing *ingestRun) {
	for i := 0; time.Now().Before(stop); {
		p := chunks[i%len(chunks)]
		code, _, raw, err := d.do("POST", "/v1/tenants/"+id+"/observe", p.body)
		ing.posts++
		ok := err == nil && (code == http.StatusAccepted || code == http.StatusTooManyRequests)
		b.op(ok, "observe: status %d err %v", code, err)
		if !ok {
			ing.failed++
			return
		}
		if code == http.StatusTooManyRequests {
			ing.observe429++
			time.Sleep(5 * time.Millisecond)
			continue
		}
		var rep observeReply
		if err := json.Unmarshal(raw, &rep); err != nil || rep.Accepted != int64(len(p.objs)) {
			b.op(false, "observe: reply %s: %v", raw, err)
			ing.failed++
			return
		}
		ing.accepted += rep.Accepted
		ing.queueMax = max(ing.queueMax, rep.Queued)
		i++
		if ing.accepted >= ing.nextSwap {
			ing.nextSwap += swapEvery
			if err := b.snapshotSwap(d, id, ing, models); err != nil {
				b.op(false, "snapshot: %v", err)
				ing.failed++
				return
			}
		}
	}
}

// snapshotSwap freezes the tenant's stream into its serving model and
// fetches the new model for the assignment checks.
func (b *bench) snapshotSwap(d *daemon, id string, ing *ingestRun, models modelCache) error {
	t0 := time.Now()
	var info tenantInfo
	if err := d.call("POST", "/v1/tenants/"+id+"/snapshot", nil, http.StatusOK, &info); err != nil {
		return err
	}
	ing.swapMs = append(ing.swapMs, millis(time.Since(t0)))
	b.op(true, "snapshot")
	models.fetch(b, d, id, info.ModelVersion)
	if models[info.ModelVersion] == nil {
		return fmt.Errorf("model version %d not fetched", info.ModelVersion)
	}
	return nil
}
