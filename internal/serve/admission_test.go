package serve

// The deterministic admission harness: every shed/admit decision in these
// tests is driven by a fake clock and a hand-fed cost model, so refill math,
// auto sizing, Retry-After pricing, and mode transitions are table-testable
// without a single sleep. CI runs this package under -race; the conservation
// property test is where admission earns that flag.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ucpc"
)

// fakeClock is a manually advanced clock safe for concurrent readers.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// feedCost pins route r's EWMA to exactly nsPerObject (one sample sets the
// EWMA directly).
func feedCost(a *admission, r route, nsPerObject float64) {
	a.observeCost(r, 1, time.Duration(nsPerObject))
}

func TestTokenBucketFakeClock(t *testing.T) {
	clk := newFakeClock()
	b := &tokenBucket{rate: 10, burst: 20} // 10 objects/sec, cap 20

	// First touch initializes a full bucket.
	if ok, _ := b.take(clk.now(), 20); !ok {
		t.Fatal("fresh bucket should cover a full burst")
	}
	// Empty now: a take of 5 must wait 5/10 = 500ms.
	ok, wait := b.take(clk.now(), 5)
	if ok || wait != 500*time.Millisecond {
		t.Fatalf("empty bucket: ok=%v wait=%v, want refusal with 500ms", ok, wait)
	}
	// 300ms refills 3 tokens — still short by 2, wait 200ms.
	clk.advance(300 * time.Millisecond)
	ok, wait = b.take(clk.now(), 5)
	if ok || wait != 200*time.Millisecond {
		t.Fatalf("partial refill: ok=%v wait=%v, want refusal with 200ms", ok, wait)
	}
	// The refused take consumed nothing: 200ms more covers it exactly.
	clk.advance(200 * time.Millisecond)
	if ok, _ := b.take(clk.now(), 5); !ok {
		t.Fatal("bucket should cover 5 after 500ms at rate 10")
	}
	// Refill never exceeds burst.
	clk.advance(time.Hour)
	tokens, _, _ := b.level(clk.now())
	if tokens != 20 {
		t.Fatalf("tokens = %v after an hour, want capped at burst 20", tokens)
	}
	// A zero-rate bucket reports an hour, not a division by zero.
	b.resize(clk.now(), 0, 20)
	b.take(clk.now(), 20)
	if ok, wait := b.take(clk.now(), 1); ok || wait != time.Hour {
		t.Fatalf("zero-rate refusal: ok=%v wait=%v, want 1h", ok, wait)
	}
}

func TestTokenBucketResizeKeepsAccrual(t *testing.T) {
	clk := newFakeClock()
	b := &tokenBucket{rate: 10, burst: 100}
	b.take(clk.now(), 100) // init + drain
	clk.advance(time.Second)
	b.resize(clk.now(), 1000, 5) // accrued 10 at the old rate, clamped to new burst
	tokens, rate, burst := b.level(clk.now())
	if tokens != 5 || rate != 1000 || burst != 5 {
		t.Fatalf("after resize: tokens=%v rate=%v burst=%v, want 5/1000/5", tokens, rate, burst)
	}
}

// TestAdmissionAutoSizing drives the auto-mode decision table with a fixed
// cost model: 1ms/object against a 100ms budget gives maxBatch 100 and
// rate 0.6 × 1000 = 600 objects/sec.
func TestAdmissionAutoSizing(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(modeAuto, 100*time.Millisecond, nil, clk.now)

	// Cold model: everything is admitted (nothing to size from).
	if d := a.admit(routeAssign, 1_000_000, 0); d.verdict != admitOK {
		t.Fatalf("cold admit verdict = %v, want admitOK", d.verdict)
	}
	a.exit(routeAssign, 1_000_000)

	feedCost(a, routeAssign, float64(time.Millisecond)) // 1ms/object

	// Oversize: a batch beyond budget/cost can never finish in budget.
	d := a.admit(routeAssign, 101, 0)
	if d.verdict != shed413 || d.maxBatch != 100 {
		t.Fatalf("oversize: verdict=%v maxBatch=%d, want shed413 with 100", d.verdict, d.maxBatch)
	}

	// A full-burst batch through an empty pipeline is admissible.
	d = a.admit(routeAssign, 100, 0)
	if d.verdict != admitOK || d.conc != 1 {
		t.Fatalf("burst admit: verdict=%v conc=%d, want admitOK conc 1", d.verdict, d.conc)
	}
	a.exit(routeAssign, 100)

	// The bucket is now empty: the next batch sheds 429 with the refill wait
	// (deficit 50 at 600 objects/sec ≈ 83.3ms).
	d = a.admit(routeAssign, 50, 0)
	if d.verdict != shed429 {
		t.Fatalf("drained bucket: verdict=%v, want shed429", d.verdict)
	}
	deficit := 50.0
	if got, want := d.retryAfter, time.Duration(deficit/600.0*float64(time.Second)); got != want {
		t.Fatalf("retryAfter = %v, want %v", got, want)
	}

	// Advancing the fake clock past the deficit admits it — no sleeps.
	clk.advance(100 * time.Millisecond)
	if d = a.admit(routeAssign, 50, 0); d.verdict != admitOK {
		t.Fatalf("post-refill admit verdict = %v, want admitOK", d.verdict)
	}
	a.exit(routeAssign, 50)
}

// TestAdmissionInflightGate pins the standing-queue bound: admitted work
// that has not exited blocks further admissions past a quarter of maxBatch,
// and a lone request through an empty pipeline is always admissible.
func TestAdmissionInflightGate(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(modeAuto, 100*time.Millisecond, nil, clk.now)
	feedCost(a, routeAssign, float64(time.Millisecond)) // maxBatch 100, cap 25

	// First request enters the pipeline (10 objects in flight).
	if d := a.admit(routeAssign, 10, 0); d.verdict != admitOK || d.conc != 1 {
		t.Fatalf("first admit: %+v", d)
	}
	// Second stacks to 20 — still under the 25-object cap — at conc 2.
	if d := a.admit(routeAssign, 10, 0); d.verdict != admitOK || d.conc != 2 {
		t.Fatalf("second admit: %+v", d)
	}
	// Third would stack 30 > 25: shed 429 priced at the backlog drain time
	// (20 objects × 1ms).
	d := a.admit(routeAssign, 10, 0)
	if d.verdict != shed429 || d.retryAfter != 20*time.Millisecond {
		t.Fatalf("inflight shed: verdict=%v retryAfter=%v, want shed429 20ms", d.verdict, d.retryAfter)
	}
	// Draining the pipeline reopens it (the bucket refills on the fake clock).
	a.exit(routeAssign, 10)
	a.exit(routeAssign, 10)
	clk.advance(time.Second)
	if d := a.admit(routeAssign, 10, 0); d.verdict != admitOK || d.conc != 1 {
		t.Fatalf("post-drain admit: %+v", d)
	}
	a.exit(routeAssign, 10)

	// The lone-request exception: a full-burst batch with nothing in flight
	// must pass the gate even though it exceeds the cap on its own.
	clk.advance(time.Second)
	if d := a.admit(routeAssign, 100, 0); d.verdict != admitOK {
		t.Fatalf("lone full-burst admit: %+v", d)
	}
	a.exit(routeAssign, 100)
}

// TestAdmissionObserveQueuePricing pins the observe-path Retry-After: the
// shed price includes the queued backlog at the ingest cost estimate.
func TestAdmissionObserveQueuePricing(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(modeAuto, 100*time.Millisecond, nil, clk.now)
	feedCost(a, routeObserve, float64(time.Millisecond)) // 1ms/object ingest

	// Drain the observe bucket (maxBatch 100).
	if d := a.admit(routeObserve, 100, 0); d.verdict != admitOK {
		t.Fatalf("observe drain: %+v", d)
	}
	// A shed with 40 queued objects prices bucket deficit + 40ms of drain.
	d := a.admit(routeObserve, 50, 40)
	if d.verdict != shed429 {
		t.Fatalf("observe shed: %+v", d)
	}
	deficit := 50.0
	bucketWait := time.Duration(deficit / 600.0 * float64(time.Second))
	if got, want := d.retryAfter, bucketWait+40*time.Millisecond; got != want {
		t.Fatalf("queued retryAfter = %v, want %v", got, want)
	}

	// queueRetryAfter prices a queue-full rejection the same way, and falls
	// back to one second when the cost model is cold.
	if got := a.queueRetryAfter(40); got != 40*time.Millisecond {
		t.Fatalf("queueRetryAfter(40) = %v, want 40ms", got)
	}
	cold := newAdmission(modeAuto, 100*time.Millisecond, nil, clk.now)
	if got := cold.queueRetryAfter(40); got != time.Second {
		t.Fatalf("cold queueRetryAfter = %v, want 1s", got)
	}
}

func TestAdmissionManualAndOffModes(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(modeOff, 100*time.Millisecond, nil, clk.now)
	feedCost(a, routeAssign, float64(time.Millisecond))

	// Off mode admits everything, however absurd, but still counts.
	if d := a.admit(routeAssign, 1_000_000, 0); d.verdict != admitOK {
		t.Fatalf("off-mode admit: %+v", d)
	}
	a.exit(routeAssign, 1_000_000)

	// Manual limits: rate 100 objects/sec, burst 30.
	if err := a.applyLimits(limitsRequest{Mode: "manual",
		AssignRateObjectsPerSec: 100, AssignBurstObjects: 30}); err != nil {
		t.Fatal(err)
	}
	if d := a.admit(routeAssign, 31, 0); d.verdict != shed413 || d.maxBatch != 30 {
		t.Fatalf("manual oversize: %+v", d)
	}
	if d := a.admit(routeAssign, 30, 0); d.verdict != admitOK {
		t.Fatalf("manual burst admit: %+v", d)
	}
	a.exit(routeAssign, 30)
	d := a.admit(routeAssign, 10, 0)
	if d.verdict != shed429 || d.retryAfter != 100*time.Millisecond {
		t.Fatalf("manual drained: verdict=%v retryAfter=%v, want shed429 100ms", d.verdict, d.retryAfter)
	}
	// The observe route was left at rate 0 = unlimited.
	if d := a.admit(routeObserve, 1_000_000, 0); d.verdict != admitOK {
		t.Fatalf("manual unlimited observe: %+v", d)
	}
	// Back to auto: sizing returns to the cost model, but accrued tokens
	// carry across the transition (the manual burst of 30 caps them — no
	// free refill from flipping modes), so a batch within that carry-over is
	// admitted and a full auto burst is not yet.
	if err := a.applyLimits(limitsRequest{Mode: "auto"}); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Second)
	if d := a.admit(routeAssign, 100, 0); d.verdict != shed429 {
		t.Fatalf("auto restore should not mint tokens past the manual burst: %+v", d)
	}
	if d := a.admit(routeAssign, 25, 0); d.verdict != admitOK {
		t.Fatalf("auto restored: %+v", d)
	}
	a.exit(routeAssign, 25)
	// One refill interval later the full auto burst is admissible again.
	clk.advance(time.Second)
	if d := a.admit(routeAssign, 100, 0); d.verdict != admitOK {
		t.Fatalf("auto refilled: %+v", d)
	}
	a.exit(routeAssign, 100)
}

func TestApplyLimitsValidation(t *testing.T) {
	cases := []struct {
		name string
		req  limitsRequest
		ok   bool
	}{
		{"auto", limitsRequest{Mode: "auto"}, true},
		{"off", limitsRequest{Mode: "off"}, true},
		{"manual", limitsRequest{Mode: "manual", AssignRateObjectsPerSec: 10}, true},
		{"unknown mode", limitsRequest{Mode: "sometimes"}, false},
		{"empty mode", limitsRequest{}, false},
		{"negative rate", limitsRequest{Mode: "manual", AssignRateObjectsPerSec: -1}, false},
		{"NaN burst", limitsRequest{Mode: "manual", AssignBurstObjects: math.NaN()}, false},
		{"Inf rate", limitsRequest{Mode: "manual", ObserveRateObjectsPerSec: math.Inf(1)}, false},
		{"override without manual", limitsRequest{Mode: "auto", AssignRateObjectsPerSec: 10}, false},
		{"override in off", limitsRequest{Mode: "off", ObserveBurstObjects: 5}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newAdmission(modeAuto, 0, nil, newFakeClock().now)
			err := a.applyLimits(tc.req)
			if tc.ok && err != nil {
				t.Fatalf("applyLimits(%+v) = %v, want ok", tc.req, err)
			}
			if !tc.ok && err == nil {
				t.Fatalf("applyLimits(%+v) accepted, want error", tc.req)
			}
		})
	}

	// A manual rate with burst 0 defaults the burst to one second of rate.
	a := newAdmission(modeAuto, 0, nil, newFakeClock().now)
	if err := a.applyLimits(limitsRequest{Mode: "manual", AssignRateObjectsPerSec: 40}); err != nil {
		t.Fatal(err)
	}
	if d := a.admit(routeAssign, 41, 0); d.verdict != shed413 || d.maxBatch != 40 {
		t.Fatalf("defaulted burst: %+v, want shed413 with maxBatch 40", d)
	}
}

func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 1},
		{-time.Second, 1},
		{time.Millisecond, 1},
		{time.Second, 1},
		{1001 * time.Millisecond, 2},
		{90 * time.Second, 90},
		{2 * time.Hour, 3600},
	}
	for _, tc := range cases {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}

// TestCostModelReweigh pins the scanned-candidate work proxy: installing a
// model that scans twice the candidates doubles the EWMA before any request
// against it is measured, and the scale is clamped to [1/4, 4].
func TestCostModelReweigh(t *testing.T) {
	var c costModel
	c.observe(1, 1000*time.Nanosecond)
	c.reweigh(2) // first weight: records, never scales (no previous weight)
	if ewma, _ := c.estimate(); ewma != 1000 {
		t.Fatalf("ewma after first reweigh = %v, want unchanged 1000", ewma)
	}
	c.reweigh(4) // 2 → 4 doubles the work per object
	if ewma, _ := c.estimate(); ewma != 2000 {
		t.Fatalf("ewma after 2x reweigh = %v, want 2000", ewma)
	}
	c.reweigh(0.1) // 4 → 0.1 is a 40x drop, clamped to 1/4
	if ewma, _ := c.estimate(); ewma != 500 {
		t.Fatalf("ewma after clamped shrink = %v, want 500", ewma)
	}
	c.reweigh(40) // 0.1 → 40 is 400x, clamped to 4
	if ewma, _ := c.estimate(); ewma != 2000 {
		t.Fatalf("ewma after clamped growth = %v, want 2000", ewma)
	}
	// Garbage weights are ignored outright.
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		c.reweigh(w)
	}
	if ewma, _ := c.estimate(); ewma != 2000 {
		t.Fatalf("ewma after garbage weights = %v, want 2000", ewma)
	}

	// onInstall derives the weight from the pruning report: scan fraction ×
	// k. 25 scanned of 100 candidates at k=8 is weight 2; a later model
	// scanning everything (weight 8) costs 4x.
	clk := newFakeClock()
	a := newAdmission(modeAuto, 0, nil, clk.now)
	feedCost(a, routeAssign, 1000)
	a.onInstall(&ucpc.Report{ScannedCandidates: 25, PrunedCandidates: 75}, 8)
	a.onInstall(&ucpc.Report{ScannedCandidates: 100, PrunedCandidates: 0}, 8)
	if ewma, _ := a.routes[routeAssign].cost.estimate(); ewma != 4000 {
		t.Fatalf("ewma after full-scan install = %v, want 4000", ewma)
	}
	// Nil reports and degenerate counters change nothing.
	a.onInstall(nil, 8)
	a.onInstall(&ucpc.Report{}, 8)
	a.onInstall(&ucpc.Report{ScannedCandidates: 1}, 0)
	if ewma, _ := a.routes[routeAssign].cost.estimate(); ewma != 4000 {
		t.Fatalf("ewma after degenerate installs = %v, want 4000", ewma)
	}
}

// TestCostModelEWMAConvergence holds the EWMA to the accuracy contract the
// experiment gates: against steady samples it converges onto the exact
// measured mean well within 30%.
func TestCostModelEWMAConvergence(t *testing.T) {
	var c costModel
	// A noisy warmup, then steady 2000ns/object samples.
	c.observe(1, 9000*time.Nanosecond)
	for i := 0; i < 40; i++ {
		c.observe(10, 20_000*time.Nanosecond)
	}
	ewma, _ := c.estimate()
	measured, _ := c.measured()
	if ratio := ewma / measured; ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("EWMA %v strayed beyond 30%% of measured %v (ratio %.3f)", ewma, measured, ratio)
	}
}

// TestAdmissionConservationProperty is the conservation law under arbitrary
// interleaving: many goroutines hammer admit/exit with mixed batch sizes,
// modes flip concurrently, and at the end every attempt is accounted for as
// exactly one of admitted / shed429 / shed413 — per route, nothing lost,
// nothing double-counted. Run under -race this is also the data-race gate
// for the admission core.
func TestAdmissionConservationProperty(t *testing.T) {
	clk := newFakeClock()
	a := newAdmission(modeAuto, 10*time.Millisecond, nil, clk.now)
	feedCost(a, routeAssign, float64(50*time.Microsecond))
	feedCost(a, routeObserve, float64(50*time.Microsecond))

	const (
		workers     = 8
		perWorker   = 500
		modeFlips   = 100
		clockJitter = time.Millisecond
	)
	var wg sync.WaitGroup
	var admitted, s429, s413 [routeCount]atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := routeAssign
			if w%2 == 1 {
				r = routeObserve
			}
			for i := 0; i < perWorker; i++ {
				n := 1 + (w*perWorker+i)%400 // mixed sizes, some oversize
				d := a.admit(r, n, int64(i%3))
				switch d.verdict {
				case admitOK:
					admitted[r].Add(1)
					if d.conc < 1 {
						t.Errorf("admitted conc = %d, want >= 1", d.conc)
					}
					a.exit(r, n)
				case shed429:
					s429[r].Add(1)
				case shed413:
					s413[r].Add(1)
				}
			}
		}(w)
	}
	// Mode churn and clock advances race the workers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		reqs := []limitsRequest{
			{Mode: "manual", AssignRateObjectsPerSec: 1000, AssignBurstObjects: 50},
			{Mode: "off"},
			{Mode: "auto"},
		}
		for i := 0; i < modeFlips; i++ {
			if err := a.applyLimits(reqs[i%len(reqs)]); err != nil {
				t.Errorf("applyLimits: %v", err)
			}
			clk.advance(clockJitter)
		}
	}()
	wg.Wait()

	for r := route(0); r < routeCount; r++ {
		ra := &a.routes[r]
		attempts := ra.attempts.Load()
		sum := ra.admitted.Load() + ra.shed429c.Load() + ra.shed413c.Load()
		if attempts != sum {
			t.Errorf("route %s: attempts %d != admitted+shed %d", routeNames[r], attempts, sum)
		}
		if ra.admitted.Load() != admitted[r].Load() ||
			ra.shed429c.Load() != s429[r].Load() || ra.shed413c.Load() != s413[r].Load() {
			t.Errorf("route %s: counters (%d/%d/%d) disagree with caller tallies (%d/%d/%d)",
				routeNames[r], ra.admitted.Load(), ra.shed429c.Load(), ra.shed413c.Load(),
				admitted[r].Load(), s429[r].Load(), s413[r].Load())
		}
		if in := ra.inflightObjects.Load(); in != 0 {
			t.Errorf("route %s: %d objects still in flight after drain", routeNames[r], in)
		}
		if in := ra.inflightReqs.Load(); in != 0 {
			t.Errorf("route %s: %d requests still in flight after drain", routeNames[r], in)
		}
	}
}

// TestAdmissionConservationHTTP drives the same law end to end: an
// admission-enabled tenant hammered over HTTP with mixed batch sizes, then
// both conservation laws checked on the daemon's own surfaces — per-route
// attempts == admitted + shed on /limits, requests == Σ responses on
// /metrics — and every shed carries its degraded-mode contract (429 with a
// well-formed Retry-After, 413 with the admissible maximum, never 5xx).
// The daemon runs on a fake clock pinned in place, so the manual bucket
// never refills: exactly one burst's worth of objects is admitted and every
// decision is deterministic regardless of box speed.
func TestAdmissionConservationHTTP(t *testing.T) {
	clk := newFakeClock()
	_, ts := newTestServer(t, Config{Admission: true, P99Budget: 5 * time.Millisecond, clock: clk.now})
	do(t, "POST", ts.URL+"/v1/tenants", `{"id":"adm","k":2,"seed":7,"admission":"on"}`, 201, nil)
	base := ts.URL + "/v1/tenants/adm"
	do(t, "POST", base+"/fit", pointsBody(200, 1), 200, nil)

	// Cold auto mode admits the first assign; manual limits then pin the
	// bucket (the pinned fake clock would keep wall-time cost samples at
	// zero, leaving auto mode cold forever).
	do(t, "POST", base+"/assign", pointsBody(4, 2), 200, nil)
	do(t, "PUT", base+"/limits",
		`{"mode":"manual","assign_rate_objects_per_sec":2000,"assign_burst_objects":100}`, 200, nil)

	var wg sync.WaitGroup
	var got5xx atomic.Int64
	sizes := []int{1, 4, 16, 400, 4000}
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				body := pointsBody(sizes[(w+i)%len(sizes)], int64(w*100+i))
				resp, err := http.Post(base+"/assign", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("assign: %v", err)
					continue
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == 200:
				case resp.StatusCode == http.StatusTooManyRequests:
					if ra := resp.Header.Get("Retry-After"); ra == "" {
						t.Errorf("429 without Retry-After")
					}
				case resp.StatusCode == http.StatusRequestEntityTooLarge:
					var shed struct {
						MaxBatch int `json:"max_batch_objects"`
					}
					if json.Unmarshal(raw, &shed) != nil || shed.MaxBatch < 1 {
						t.Errorf("413 without max_batch_objects: %s", raw)
					}
				case resp.StatusCode >= 500:
					got5xx.Add(1)
				default:
					t.Errorf("assign: unexpected status %d (%s)", resp.StatusCode, raw)
				}
			}
		}(w)
	}
	wg.Wait()
	if got5xx.Load() != 0 {
		t.Fatalf("%d sheds surfaced as 5xx; degraded mode must stay 4xx", got5xx.Load())
	}

	var lim limitsInfo
	do(t, "GET", base+"/limits", "", 200, &lim)
	for _, rl := range []routeLimits{lim.Assign, lim.Observe} {
		if rl.AttemptsTotal != rl.AdmittedTotal+rl.Shed429Total+rl.Shed413Total {
			t.Fatalf("admission conservation violated on /limits: %+v", rl)
		}
	}
	if lim.Assign.Shed413Total == 0 {
		t.Fatal("no 413 sheds — the 4000-object batches never exceeded maxBatch")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	requests, responses := int64(-1), int64(0)
	attempts, accounted := map[string]int64{}, map[string]int64{}
	for _, line := range strings.Split(string(raw), "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, "ucpcd_requests_total %d", &v); err == nil {
			requests = v
		}
		var class string
		if _, err := fmt.Sscanf(line, "ucpcd_responses_total{class=%q} %d", &class, &v); err == nil {
			responses += v
		}
		var rt, code string
		if _, err := fmt.Sscanf(line, "ucpcd_admission_attempts_total{route=%q} %d", &rt, &v); err == nil {
			attempts[rt] = v
		}
		if _, err := fmt.Sscanf(line, "ucpcd_admitted_total{route=%q} %d", &rt, &v); err == nil {
			accounted[rt] += v
		}
		if n, err := fmt.Sscanf(line, "ucpcd_shed_total{route=%q,code=%q} %d", &rt, &code, &v); err == nil && n == 3 {
			accounted[rt] += v
		}
	}
	if requests < 0 || requests != responses {
		t.Fatalf("request conservation violated: %d requests vs %d responses", requests, responses)
	}
	for rt, att := range attempts {
		if att != accounted[rt] {
			t.Fatalf("daemon-wide admission conservation violated on route %s: %d attempts, %d accounted",
				rt, att, accounted[rt])
		}
	}
}

// stepClock advances by the next step of a seeded sequence, 80–120 µs, at
// every reading, so the wall-time cost samples a sequential test produces
// are fixed data whatever the box's load.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
	r  *rand.Rand
}

func newStepClock(seed int64) *stepClock {
	return &stepClock{t: time.Unix(1_000_000, 0), r: rand.New(rand.NewSource(seed))}
}

func (c *stepClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(80*time.Microsecond + time.Duration(c.r.Int63n(int64(40*time.Microsecond))))
	return c.t
}

// TestCostModelAccuracyInProcess is the satellite accuracy gate as a unit
// test: a synthetic tenant with pruning disabled (every candidate scanned —
// the steadiest per-object serving cost), driven sequentially so every
// sample is uncontended, must hold its EWMA within 30% of the exact
// measured mean the daemon tracks alongside it. The daemon reads a seeded
// step clock, so the check runs on the same samples on every run.
func TestCostModelAccuracyInProcess(t *testing.T) {
	clk := newStepClock(11)
	_, ts := newTestServer(t, Config{Admission: true, clock: clk.now})
	do(t, "POST", ts.URL+"/v1/tenants",
		`{"id":"acc","k":3,"seed":11,"pruning":"off","admission":"on"}`, 201, nil)
	base := ts.URL + "/v1/tenants/acc"
	do(t, "POST", base+"/fit", pointsBody(300, 1), 200, nil)

	body := pointsBody(64, 2)
	for i := 0; i < 30; i++ {
		do(t, "POST", base+"/assign", body, 200, nil)
	}

	var lim limitsInfo
	do(t, "GET", base+"/limits", "", 200, &lim)
	if lim.Assign.CostSamples < 10 {
		t.Fatalf("only %d cost samples after 30 sequential assigns", lim.Assign.CostSamples)
	}
	if lim.Assign.CostNsPerObject <= 0 || lim.Assign.MeasuredNsPerObject <= 0 {
		t.Fatalf("cost model empty: %+v", lim.Assign)
	}
	ratio := lim.Assign.CostNsPerObject / lim.Assign.MeasuredNsPerObject
	if ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("EWMA %.0f ns/object strayed beyond 30%% of measured %.0f (ratio %.3f)",
			lim.Assign.CostNsPerObject, lim.Assign.MeasuredNsPerObject, ratio)
	}
	// Auto sizing must reflect that estimate on the GET surface.
	if lim.Mode != "auto" || lim.Assign.RateObjectsPerSec <= 0 || lim.Assign.MaxBatchObjects < 1 {
		t.Fatalf("auto limits not derived from the cost model: %+v", lim.Assign)
	}
}

// TestLimitsHTTPValidation pins the control surface's error contract.
func TestLimitsHTTPValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	do(t, "POST", ts.URL+"/v1/tenants", `{"id":"lv","k":2,"seed":3}`, 201, nil)
	base := ts.URL + "/v1/tenants/lv"

	do(t, "GET", ts.URL+"/v1/tenants/nope/limits", "", 404, nil)
	do(t, "PUT", base+"/limits", `{"mode":"sometimes"}`, 400, nil)
	do(t, "PUT", base+"/limits", `{"mode":"auto","assign_rate_objects_per_sec":10}`, 400, nil)
	do(t, "PUT", base+"/limits", `{"mode":"manual","assign_rate_objects_per_sec":-1}`, 400, nil)
	do(t, "PUT", base+"/limits", `not json`, 400, nil)

	// A tenant created without admission (server default off) reports mode
	// "off", and a PUT flips it live.
	var lim limitsInfo
	do(t, "GET", base+"/limits", "", 200, &lim)
	if lim.Mode != "off" {
		t.Fatalf("default mode = %q, want off", lim.Mode)
	}
	do(t, "PUT", base+"/limits", `{"mode":"manual","assign_rate_objects_per_sec":5,"assign_burst_objects":8}`, 200, &lim)
	if lim.Mode != "manual" || lim.Assign.BurstObjects != 8 {
		t.Fatalf("manual PUT result: %+v", lim)
	}
	// An invalid tenant spec admission value is rejected at creation.
	do(t, "POST", ts.URL+"/v1/tenants", `{"id":"bad","k":2,"admission":"maybe"}`, 400, nil)
}
