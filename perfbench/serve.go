package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"ucpc"
)

// assignReply is the daemon's assign response body.
type assignReply struct {
	Assign       []int `json:"assign"`
	ModelVersion int64 `json:"model_version"`
	K            int   `json:"k"`
}

// shot is one open-loop assign request and what came back.
type shot struct {
	payload int // index into the phase's payload pool
	timing
	code  int
	err   error
	reply assignReply
	req   int64 // request id shared by the HTTP span and its replayed stages
	span  int64 // HTTP span id when traced
}

// openLoop sends one assign per arrival of sched to path, from conns
// worker goroutines that share the daemon's conns-connection client. A
// dispatcher releases request i at its due time; a worker that is busy
// makes the request late, and its latency still counts from the due time.
func (b *bench) openLoop(d *daemon, path string, sched schedule, pool []payload) []shot {
	n := sched.len()
	shots := make([]shot, n)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				s := &shots[i]
				s.payload = i % len(pool)
				s.due = sched.due(i)
				b.fire(d, path, s, pool)
			}
		}()
	}
	for i := 0; i < n; i++ {
		if wait := time.Until(sched.due(i)); wait > 0 {
			time.Sleep(wait)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return shots
}

// fire sends one assign and records its timing, status and reply.
func (b *bench) fire(d *daemon, path string, s *shot, pool []payload) {
	s.sent = time.Now()
	code, _, raw, err := d.do("POST", path, pool[s.payload].body)
	s.done = time.Now()
	s.code, s.err = code, err
	if err == nil && code == http.StatusOK {
		s.err = json.Unmarshal(raw, &s.reply)
	}
	if b.tr != nil {
		name := "http"
		if code != http.StatusOK {
			name = "http_refused"
		}
		s.req = b.reqs.Add(1)
		s.span = b.tr.add(name, 0, s.req, s.sent, s.done)
	}
}

// phaseLedger is the per-phase accounting record: what was sent and how it
// ended, and whether the daemon's own counters agree.
type phaseLedger struct {
	Name        string  `json:"name"`
	Sent        int     `json:"sent"`
	Succeeded   int     `json:"succeeded"`
	Refused429  int     `json:"refused_429"`
	Refused413  int     `json:"refused_413"`
	Failed      int     `json:"failed"`
	Seconds     float64 `json:"seconds"`
	P50Ms       float64 `json:"p50_ms,omitempty"`
	P90Ms       float64 `json:"p90_ms,omitempty"`
	P95Ms       float64 `json:"p95_ms,omitempty"`
	TailPct     float64 `json:"tail_pct,omitempty"`
	TailMs      float64 `json:"tail_ms,omitempty"`
	TailBeyond  int     `json:"tail_beyond,omitempty"`
	LateP99Ms   float64 `json:"late_p99_ms,omitempty"`
	DaemonP99Ms float64 `json:"daemon_p99_ms,omitempty"`
}

// tally fills the ledger's outcome counts from a phase's shots and records
// each shot as an op (refusals are outcomes, not failures).
func (b *bench) tally(l *phaseLedger, shots []shot) {
	for _, s := range shots {
		l.Sent++
		switch {
		case s.err != nil:
			l.Failed++
		case s.code == http.StatusOK:
			l.Succeeded++
		case s.code == http.StatusTooManyRequests:
			l.Refused429++
		case s.code == http.StatusRequestEntityTooLarge:
			l.Refused413++
		default:
			l.Failed++
		}
		b.op(s.err == nil && (s.code == 200 || s.code == 429 || s.code == 413),
			"%s: assign status %d err %v", l.Name, s.code, s.err)
	}
}

// refusals counts the 429 and 413 replies among shots.
func refusals(shots []shot) (n429, n413 int) {
	for _, s := range shots {
		switch s.code {
		case http.StatusTooManyRequests:
			n429++
		case http.StatusRequestEntityTooLarge:
			n413++
		}
	}
	return n429, n413
}

// latencies returns the due-time latency and lateness of the 200 replies.
func latencies(shots []shot) (lat, late []float64) {
	for _, s := range shots {
		if s.err == nil && s.code == http.StatusOK {
			lat = append(lat, millis(s.latency()))
		}
		late = append(late, millis(s.timing.late()))
	}
	return lat, late
}

// conservation checks the daemon's counter laws on a scrape taken while
// the daemon is quiet: every request has exactly one response class, and
// per route every admission attempt was admitted or shed.
func (b *bench) conservation(phase string, s scrape) {
	var resp float64
	for _, c := range []string{"2xx", "3xx", "4xx", "5xx"} {
		resp += s[fmt.Sprintf("ucpcd_responses_total{class=%q}", c)]
	}
	b.check("requests_conserved", s["ucpcd_requests_total"] == resp,
		"%s: requests_total %v != sum responses_total %v", phase, s["ucpcd_requests_total"], resp)
	for _, r := range []string{"assign", "observe"} {
		att := s[fmt.Sprintf("ucpcd_admission_attempts_total{route=%q}", r)]
		adm := s[fmt.Sprintf("ucpcd_admitted_total{route=%q}", r)]
		s429 := s[fmt.Sprintf("ucpcd_shed_total{route=%q,code=\"429\"}", r)]
		s413 := s[fmt.Sprintf("ucpcd_shed_total{route=%q,code=\"413\"}", r)]
		b.check("admission_conserved", att == adm+s429+s413,
			"%s: %s attempts %v != admitted %v + shed %v + %v", phase, r, att, adm, s429, s413)
	}
}

// refusalsMatch checks that the client saw exactly the refusals the daemon
// counted between two scrapes: assign 429/413 against the admission shed
// counters, observe queue-full 429 against queue_rejected_total.
func (b *bench) refusalsMatch(phase string, before, after scrape, assign429, assign413, observe429 int) {
	d429 := delta(before, after, `ucpcd_shed_total{route="assign",code="429"}`)
	d413 := delta(before, after, `ucpcd_shed_total{route="assign",code="413"}`)
	dq := delta(before, after, "ucpcd_queue_rejected_total") +
		delta(before, after, `ucpcd_shed_total{route="observe",code="429"}`)
	b.check("refusals_match", float64(assign429) == d429 && float64(assign413) == d413 && float64(observe429) == dq,
		"%s: client 429/413/observe-429 %d/%d/%d vs daemon %v/%v/%v",
		phase, assign429, assign413, observe429, d429, d413, dq)
}

// modelCache holds the daemon's models by version, fetched with GET /model
// right after each install the benchmark itself made.
type modelCache map[int64]*ucpc.Model

func (mc modelCache) fetch(b *bench, d *daemon, tenant string, want int64) {
	m, v, err := d.getModel(tenant)
	b.op(err == nil, "GET model %s: %v", tenant, err)
	if err != nil {
		return
	}
	b.check("model_version", v == want, "GET model %s: version %d, want %d", tenant, v, want)
	mc[v] = m
}

// verifyAssignments compares every 200 reply with an in-process
// Model.Assign of the same payload on the model of the version the reply
// names.
func (b *bench) verifyAssignments(phase string, shots []shot, pool []payload, models modelCache) {
	type key struct {
		payload int
		version int64
	}
	want := map[key][]int{}
	for _, s := range shots {
		if s.err != nil || s.code != http.StatusOK {
			continue
		}
		k := key{s.payload, s.reply.ModelVersion}
		exp, ok := want[k]
		if !ok {
			m := models[k.version]
			if m == nil {
				b.check("assign_matches_model", false, "%s: reply names unknown model version %d", phase, k.version)
				continue
			}
			var err error
			exp, err = m.Assign(context.Background(), pool[k.payload].objs)
			if err != nil {
				b.check("assign_matches_model", false, "%s: in-process assign: %v", phase, err)
				continue
			}
			want[k] = exp
		}
		b.check("assign_matches_model", equalInts(exp, s.reply.Assign),
			"%s: payload %d version %d: daemon %v, in-process %v", phase, k.payload, k.version, s.reply.Assign, exp)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replay re-runs every traced 200 request's payload serially through the
// public stage functions the daemon calls, outside the drive window, and
// records each stage as a child span of the request's HTTP span.
func (b *bench) replay(shots []shot, pool []payload, models modelCache) error {
	if b.tr == nil {
		return nil
	}
	for _, s := range shots {
		if s.span == 0 || s.err != nil || s.code != http.StatusOK {
			continue
		}
		m := models[s.reply.ModelVersion]
		if m == nil {
			continue
		}
		if err := b.replayOne(s.span, s.req, pool[s.payload].body, m, s.reply.ModelVersion); err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) replayOne(parent, req int64, body []byte, m *ucpc.Model, version int64) error {
	t0 := time.Now()
	var doc objectsJSON
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&doc); err != nil {
		return err
	}
	t1 := time.Now()
	marg, err := parseTokens(doc)
	if err != nil {
		return err
	}
	t2 := time.Now()
	ds := newObjects(marg)
	t3 := time.Now()
	assign, err := m.Assign(context.Background(), ds)
	if err != nil {
		return err
	}
	t4 := time.Now()
	// The daemon's writeJSON: an indented encoder over the reply map.
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(map[string]any{"assign": assign, "model_version": version, "k": m.K()}); err != nil {
		return err
	}
	t5 := time.Now()
	b.tr.add("decode", parent, req, t0, t1)
	b.tr.add("parse", parent, req, t1, t2)
	b.tr.add("new_object", parent, req, t2, t3)
	b.tr.add("assign", parent, req, t3, t4)
	b.tr.add("encode", parent, req, t4, t5)
	return nil
}

// stageSplit reports the traced request anatomy: mean HTTP span, mean
// self time of each replayed stage, and the residual (the HTTP span's own
// self time: transport, body read, routing, admission, queue hand-off).
// The stages plus the residual sum to the HTTP span by construction.
func (b *bench) stageSplit(objsPerReq float64, bytesPerReq float64) {
	means, roots := stageMeans(b.tr.snapshot(), "http")
	var stages float64
	for _, st := range []string{"decode", "parse", "new_object", "assign", "encode"} {
		b.set("trace."+st+"_ms", means[st], "ms")
		stages += means[st]
	}
	b.set("trace.http_ms", means["http"]+stages, "ms") // its self time plus its children's
	b.set("trace.requests", float64(roots), "count")
	b.set("serve.residual_ms", means["http"], "ms")
	b.set("serve.decode_ns_obj", means["decode"]*1e6/objsPerReq, "ns")
	b.set("serve.encode_us_req", means["encode"]*1e3, "us")
	b.set("serve.body_bytes_obj", bytesPerReq/objsPerReq, "bytes")
}

func poolBytes(pool []payload) float64 {
	var t float64
	for _, p := range pool {
		t += float64(len(p.body))
	}
	return t / float64(len(pool))
}

// shedProbe measures the daemon CPU a refused assign costs: a probe tenant
// under manual limits with a bucket too small for any request, so every
// request is shed, while /proc/<pid>/stat is read before and after.
func (b *bench) shedProbe(d *daemon, pool []payload, model []byte, n int) error {
	const id = "shedprobe"
	if err := d.createTenant(tenantSpec{ID: id, Algorithm: "UCPC", K: kClusters, Seed: b.seed, Admission: "off"}); err != nil {
		return err
	}
	if _, err := d.putModel(id, model); err != nil {
		return err
	}
	// A bucket of one request's worth that refills at one object per
	// thousand seconds: after the first request every request is shed.
	if err := d.setLimits(id, map[string]any{"mode": "manual",
		"assign_rate_objects_per_sec": 1e-3, "assign_burst_objects": float64(len(pool[0].objs))}); err != nil {
		return err
	}
	if code, _, _, err := d.do("POST", "/v1/tenants/"+id+"/assign", pool[0].body); err != nil || code != http.StatusOK {
		return fmt.Errorf("shed probe: first request: status %d err %v", code, err)
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	shed := 0
	for i := 0; i < n; i++ {
		code, _, _, err := d.do("POST", "/v1/tenants/"+id+"/assign", pool[i%len(pool)].body)
		b.op(err == nil && code == http.StatusTooManyRequests, "shed probe: status %d err %v", code, err)
		if code == http.StatusTooManyRequests {
			shed++
		}
	}
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	if shed > 0 {
		b.set("serve.shed_cpu_us_req", float64(cpu1-cpu0)/1e3/float64(shed), "us")
	}
	return nil
}
