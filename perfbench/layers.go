package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"time"

	"ucpc"
	"ucpc/internal/core"
	"ucpc/internal/uncertain"
	"ucpc/internal/vec"
)

var sink float64 // keeps timed kernel results alive

// timeIt runs fn reps times, recording each call as a span named after
// the public function it times, and returns the median duration of one
// call.
func (b *bench) timeIt(name string, reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		b.tr.add(name, 0, b.reqs.Add(1), t0, t1)
		ds[i] = float64(t1.Sub(t0))
	}
	return time.Duration(median(ds))
}

// layerSweep times each module's public functions in process on ds, the
// fit workload's inputs, recording a span around every timed call. Metrics
// a workload already measured from its own drive (fit reports on fit) are
// kept.
func (b *bench) layerSweep(ctx context.Context, ds ucpc.Dataset) error {

	mom := uncertain.MomentsOf(ds)
	d := b.timeIt("uncertain.MomentsOf", 5, func() { mom = uncertain.MomentsOf(ds) })
	b.set("uncertain.moments_of_ns_obj", float64(d)/float64(len(ds)), "ns")

	b.vecSweep(mom)

	// The fit workload has measured its fits already; the others fit the
	// lineup once here.
	var model *ucpc.Model
	if _, ok := b.metrics["fit.ucpc.iterations"]; !ok {
		if err := b.warmUp(ds); err != nil {
			return err
		}
		stats := map[string]*fitStats{}
		var err error
		if _, model, err = b.fitCycle(ds, stats); err != nil {
			return err
		}
		b.setFitLayers(stats)
	} else {
		var err error
		if model, err = b.fitChecked("UCPC", ds); err != nil {
			return err
		}
	}
	if err := b.coreSweep(ctx, ds, mom, model); err != nil {
		return err
	}
	if err := b.parseSweep(); err != nil {
		return err
	}

	// Model layer: the UCPC model scored on the workload's request size.
	batch := ds[:assignBig]
	if b.workload == "serve-ingest" {
		batch = ds[:1]
	}
	var assignErr error
	d = b.timeIt("ucpc.Model.Assign", 201, func() { _, assignErr = model.Assign(ctx, batch) })
	if assignErr != nil {
		return assignErr
	}
	b.set("model.assign_ns_obj", float64(d)/float64(len(batch)), "ns")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const calls = 100
	for i := 0; i < calls; i++ {
		_, _ = model.Assign(ctx, batch) // checked above
	}
	runtime.ReadMemStats(&m1)
	b.set("model.assign_allocs_call", float64(m1.Mallocs-m0.Mallocs)/calls, "count")
	ucpm, err := model.MarshalBinary()
	if err != nil {
		return err
	}
	var loadErr error
	d = b.timeIt("ucpc.LoadModel", 51, func() { _, loadErr = ucpc.LoadModel(bytes.NewReader(ucpm)) })
	if loadErr != nil {
		return loadErr
	}
	b.set("model.load_us", float64(d)/1e3, "us")

	if _, ok := b.metrics["stream.observe_ns_obj"]; !ok {
		rate, snap, err := b.streamPass(ds)
		if err != nil {
			return err
		}
		b.set("stream.observe_ns_obj", 1e9/rate, "ns")
		b.set("stream.snapshot_us", float64(snap.Microseconds()), "us")
	}
	return nil
}

// vecSweep times the blocked kernels over 1024 moment rows, in ns per row
// (ArgminRow: ns per k-wide call). vec.bytes_row is computed, not
// measured: the bytes of one m-float64 row streamed per row.
func (b *bench) vecSweep(mom *uncertain.Moments) {
	const rows = 1024
	m := mom.Dims()
	flat := make([]float64, rows*m)
	for r := 0; r < rows; r++ {
		copy(flat[r*m:], mom.Mu(r))
	}
	x := mom.Mu(rows)
	dst := make([]float64, rows)
	perRow := func(name string, fn func()) float64 {
		const passes = 20
		d := b.timeIt(name, 7, func() {
			for p := 0; p < passes; p++ {
				fn()
			}
		})
		return float64(d) / (passes * rows)
	}
	b.set("vec.dot_block_ns_row", perRow("vec.DotBlock", func() {
		for r := 0; r < rows; r++ {
			sink += vec.DotBlock(x, flat[r*m:(r+1)*m])
		}
	}), "ns")
	b.set("vec.sqdist_block_ns_row", perRow("vec.SqDistBlock", func() {
		for r := 0; r < rows; r++ {
			sink += vec.SqDistBlock(x, flat[r*m:(r+1)*m])
		}
	}), "ns")
	b.set("vec.sqnorm_block_ns_row", perRow("vec.SqNormBlock", func() {
		for r := 0; r < rows; r++ {
			sink += vec.SqNormBlock(flat[r*m : (r+1)*m])
		}
	}), "ns")
	b.set("vec.dot_rows_ns_row", perRow("vec.DotRows", func() { sink += vec.DotRows(dst, x, flat, m)[rows-1] }), "ns")
	b.set("vec.sqdist_rows_ns_row", perRow("vec.SqDistRows", func() { sink += vec.SqDistRows(dst, x, flat, m)[rows-1] }), "ns")
	// ArgminRow over k-wide score rows, as the engines call it.
	b.set("vec.argmin_row_ns", perRow("vec.ArgminRow", func() {
		for r := 0; r+kClusters <= rows; r += kClusters {
			i, v := vec.ArgminRow(dst[r : r+kClusters])
			sink += v + float64(i)
		}
	})*kClusters, "ns")
	b.set("vec.bytes_row", float64(m*8), "bytes")
}

// coreSweep times one assignment pass, one relocation pass and one
// centroid refresh on the fit dataset with k = 16 centres, in ns per
// object, with the pruned fraction of the candidates each pass weighed.
func (b *bench) coreSweep(ctx context.Context, ds ucpc.Dataset, mom *uncertain.Moments, ucpcModel *ucpc.Model) error {
	// Start from the partition two Lloyd rounds reach, so the measured
	// passes run while the centres still move (a fixed point would prune
	// every candidate and time nothing but the bound checks).
	early, err := (&ucpc.Clusterer{Algorithm: "UCPC-Lloyd", Config: ucpc.Config{Seed: b.seed, MaxIter: 2}}).Fit(ctx, ds, kClusters)
	b.op(err == nil, "early UCPC-Lloyd fit: %v", err)
	if err != nil {
		return err
	}
	n := float64(len(ds))
	assign := append([]int(nil), early.Partition().Assign...)
	centers := make([]float64, kClusters*mom.Dims())
	adds := make([]float64, kClusters)
	eng := core.NewAssigner(mom, kClusters, true)
	core.UCentroidAssignState(mom, assign, kClusters, centers, adds)
	eng.SetCenters(centers, adds)
	eng.Assign(assign, 0) // the box-filtered first pass
	p0, s0 := eng.Counters()
	var refresh, pass []float64
	for i := 0; i < 6; i++ {
		t0 := time.Now()
		core.UCentroidAssignState(mom, assign, kClusters, centers, adds)
		t1 := time.Now()
		eng.SetCenters(centers, adds)
		eng.Assign(assign, 0)
		t2 := time.Now()
		b.tr.add("core.UCentroidAssignState", 0, b.reqs.Add(1), t0, t1)
		b.tr.add("core.Assigner.Assign", 0, b.reqs.Add(1), t1, t2)
		refresh = append(refresh, float64(t1.Sub(t0)))
		pass = append(pass, float64(t2.Sub(t1)))
	}
	p1, s1 := eng.Counters()
	b.set("core.refresh_ns_obj", median(refresh)/n, "ns")
	b.set("core.assigner_pass_ns_obj", median(pass)/n, "ns")
	b.set("core.assigner_pruned_frac", frac(p1-p0, s1-s0), "ratio")

	assign = append([]int(nil), ucpcModel.Partition().Assign...)
	stats := make([]*core.Stats, kClusters)
	for c := range stats {
		stats[c] = core.NewStats(mom.Dims())
	}
	for i, c := range assign {
		stats[c].AddRow(mom.Mu(i), mom.Mu2(i), mom.Sigma2(i))
	}
	reloc := core.NewRelocEngine(core.RelocUCPC, mom, stats, true)
	if _, err := reloc.Pass(ctx, assign, 1e-12); err != nil { // fills the dot cache
		return err
	}
	p0, s0 = reloc.Counters()
	pass = pass[:0]
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := reloc.Pass(ctx, assign, 1e-12); err != nil {
			return err
		}
		t1 := time.Now()
		b.tr.add("core.RelocEngine.Pass", 0, b.reqs.Add(1), t0, t1)
		pass = append(pass, float64(t1.Sub(t0)))
	}
	p1, s1 = reloc.Counters()
	b.set("core.reloc_pass_ns_obj", median(pass)/n, "ns")
	b.set("core.reloc_pruned_frac", frac(p1-p0, s1-s0), "ratio")
	return nil
}

func frac(pruned, scanned int64) float64 {
	if pruned+scanned == 0 {
		return 0
	}
	return float64(pruned) / float64(pruned+scanned)
}

// parseSweep times datasets.ParseMarginal per token and ucpc.NewObject per
// object for each token family, on 64-object payloads.
func (b *bench) parseSweep() error {
	src := newSource(b.seed, saltProbe)
	for fam, name := range []string{"u", "n", "e"} {
		p, err := src.payload(assignBig, func(int) int { return fam })
		if err != nil {
			return err
		}
		var doc objectsJSON
		if err := json.Unmarshal(p.body, &doc); err != nil {
			return err
		}
		toks := len(doc.Objects) * dims
		var parseErr error
		d := b.timeIt("datasets.ParseMarginal", 21, func() { _, parseErr = parseTokens(doc) })
		if parseErr != nil {
			return parseErr
		}
		b.set("datasets.parse_ns_tok_"+name, float64(d)/float64(toks), "ns")
		marg, _ := parseTokens(doc) // succeeded above
		d = b.timeIt("ucpc.NewObject", 21, func() { newObjects(marg) })
		b.set("uncertain.new_object_ns_obj_"+name, float64(d)/float64(len(marg)), "ns")
	}
	return nil
}

// daemonProbe gives the fit workload's traced run the daemon layers it does
// not otherwise touch: a short light assign phase (untraced, then traced
// and replayed), the shed probe, upload swaps and a burst of observes.
func (b *bench) daemonProbe() error {
	src := newSource(b.seed, saltProbe)
	pool, err := src.payloads(16, assignBig, allNormal)
	if err != nil {
		return err
	}
	chunks, err := src.payloads(4, ingestSize, mixedThirds)
	if err != nil {
		return err
	}
	_, ucpm, err := b.servedModel()
	if err != nil {
		return err
	}
	const id = "probe"
	d, err := b.setupDaemon(1, []tenantSpec{{ID: id, Algorithm: "UCPC", K: kClusters, Seed: b.seed, Admission: "off"}}, ucpm)
	if err != nil {
		return err
	}
	defer d.stop()
	models := modelCache{}
	models.fetch(b, d, id, 1)
	light := &phaseRun{name: "probe"}
	tr := b.tr
	for i := 0; i < 2; i++ {
		b.tr = nil
		if i == 1 {
			b.tr = tr
		}
		sched := fixedSchedule(time.Now().Add(20*time.Millisecond), lightRate, 2*time.Second)
		if err := light.segment(b, d, id, sched, 2*time.Second, pool); err != nil {
			return err
		}
	}
	b.tr = tr
	l := light.finish(b)
	b.verifyAssignments("probe", light.shots, pool, models)
	b.set("trace.overhead_ms", light.overhead(), "ms")
	b.set("gen.late_ms_p99", l.LateP99Ms, "ms")
	b.set("serve.hist_p99_ms", l.DaemonP99Ms, "ms")
	b.set("serve.admit_ratio", light.deltas[`ucpcd_admitted_total{route="assign"}`]/
		light.deltas[`ucpcd_admission_attempts_total{route="assign"}`], "ratio")
	b.set("serve.shed_429", float64(l.Refused429), "count")
	b.set("serve.shed_413", float64(l.Refused413), "count")
	if err := b.replay(light.traced, pool, models); err != nil {
		return err
	}
	b.stageSplit(assignBig, poolBytes(pool))
	if err := b.shedProbe(d, pool, ucpm, 50); err != nil {
		return err
	}
	if err := b.swapProbe(d, id, ucpm, models); err != nil {
		return err
	}
	var accepted, queueMax int64
	rejected := 0
	for i := 0; i < 2*len(chunks); i++ {
		code, _, raw, err := d.do("POST", "/v1/tenants/"+id+"/observe", chunks[i%len(chunks)].body)
		b.op(err == nil && (code == http.StatusAccepted || code == http.StatusTooManyRequests),
			"probe observe: status %d err %v", code, err)
		if code == http.StatusTooManyRequests {
			rejected++
			continue
		}
		var rep observeReply
		if err == nil && json.Unmarshal(raw, &rep) == nil {
			accepted += rep.Accepted
			queueMax = max(queueMax, rep.Queued)
		}
	}
	b.set("serve.observe_429", float64(rejected), "count")
	b.set("serve.queue_depth_max", float64(queueMax), "count")
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, err := d.tenant(id)
		if err != nil {
			return err
		}
		if info.Ingested >= accepted || time.Now().After(deadline) {
			b.check("ingested_equals_accepted", info.Ingested == accepted,
				"probe: ingested %d, accepted %d", info.Ingested, accepted)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	return b.finishDaemon(d)
}
