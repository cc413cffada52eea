package serve

// The -race layer: concurrent serving against atomic hot swaps, and graceful
// shutdown draining both in-flight HTTP requests and queued ingestion. CI
// runs this package under -race; these tests are where that flag earns its
// keep.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestConcurrentAssignDuringSwap serves assigns from many goroutines while
// the model underneath is hot-swapped as fast as the fitter can produce new
// models. The gate is the tentpole's promise: zero failed requests — every
// assign lands on either the old or the new model, never on a torn one.
func TestConcurrentAssignDuringSwap(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	do(t, "POST", ts.URL+"/v1/tenants", `{"id":"hot","k":2,"seed":21}`, 201, nil)
	base := ts.URL + "/v1/tenants/hot"
	do(t, "POST", base+"/fit", pointsBody(120, 1), 200, nil)

	stop := make(chan struct{})
	var failed, served atomic.Int64
	var wg sync.WaitGroup
	const readers = 8
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := pointsBody(16, int64(100+w))
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(base+"/assign", "application/json", strings.NewReader(body))
				if err != nil {
					failed.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					failed.Add(1)
				} else {
					served.Add(1)
				}
			}
		}(w)
	}

	// Swap as fast as fits complete, mixing the two install paths (batch fit
	// and stream snapshot) for at least 5 swaps.
	swaps := 0
	do(t, "POST", base+"/observe", pointsBody(150, 2), 202, nil)
	waitIngested(t, base, 150)
	for swaps < 5 {
		do(t, "POST", base+"/fit", pointsBody(120, int64(10+swaps)), 200, nil)
		do(t, "POST", base+"/snapshot", "", 200, nil)
		swaps += 2
	}
	close(stop)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d assigns failed during hot swaps (%d served)", failed.Load(), served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no assigns served while swapping")
	}
	var info tenantInfo
	do(t, "GET", base, "", 200, &info)
	if info.Swaps < 6 { // initial fit + ≥5 loop swaps
		t.Fatalf("swaps = %d, want >= 6", info.Swaps)
	}
}

// TestShutdownDrains exercises graceful shutdown end to end over a real
// listener: every accepted observe payload must be folded into the stream
// engine before Shutdown returns, and requests in flight when Shutdown is
// called must complete with 200.
func TestShutdownDrains(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Count requests the server has started reading, so the test can prove
	// the assigns below are genuinely in flight before Shutdown begins.
	var active atomic.Int64
	s.http.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateActive {
			active.Add(1)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	base := "http://" + l.Addr().String()

	do(t, "POST", base+"/v1/tenants", `{"id":"d1","k":2,"seed":31}`, 201, nil)
	tbase := base + "/v1/tenants/d1"
	const chunks, per = 20, 100
	for i := 0; i < chunks; i++ {
		do(t, "POST", tbase+"/observe", pointsBody(per, int64(i)), 202, nil)
	}
	do(t, "POST", tbase+"/fit", pointsBody(100, 99), 200, nil)

	// Launch assigns that are still in flight when Shutdown starts.
	baseline := active.Load()
	var inflight sync.WaitGroup
	inflightErr := make(chan error, 4)
	for w := 0; w < 4; w++ {
		inflight.Add(1)
		go func(w int) {
			defer inflight.Done()
			resp, err := http.Post(tbase+"/assign", "application/json",
				strings.NewReader(pointsBody(500, int64(w))))
			if err != nil {
				inflightErr <- fmt.Errorf("in-flight assign: %w", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				inflightErr <- fmt.Errorf("in-flight assign: status %d", resp.StatusCode)
			}
		}(w)
	}

	// Do not pull the listener until the server has started reading all four
	// assigns; Shutdown then has real in-flight requests to wait for.
	waitDeadline := time.Now().Add(10 * time.Second)
	for active.Load() < baseline+4 {
		if time.Now().After(waitDeadline) {
			t.Fatalf("only %d of 4 assigns reached the server", active.Load()-baseline)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve returned %v after clean shutdown", err)
	}
	inflight.Wait()
	close(inflightErr)
	for err := range inflightErr {
		t.Error(err)
	}

	// Shutdown has returned, so the ingester must have folded every accepted
	// object — nothing accepted with a 202 may be silently dropped.
	tn, ok := s.reg.get("d1")
	if !ok {
		t.Fatal("tenant gone after shutdown")
	}
	if got := tn.ingested.Load(); got != chunks*per {
		t.Fatalf("ingested %d of %d accepted objects after drain", got, chunks*per)
	}
	if tn.queued.Load() != 0 {
		t.Fatalf("queue still holds %d objects after drain", tn.queued.Load())
	}
	if tn.lastIngestError() != "" {
		t.Fatalf("ingest error during drain: %s", tn.lastIngestError())
	}

	// The daemon is down: new connections must fail.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// TestDeleteDuringObserve races tenant deletion against observes: handlers
// must see either a 202, a 404, or a 429 — never a panic from enqueueing on
// a closed queue (the qmu/qclosed contract).
func TestDeleteDuringObserve(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for round := 0; round < 10; round++ {
		id := fmt.Sprintf("r%d", round)
		do(t, "POST", ts.URL+"/v1/tenants", `{"id":"`+id+`","k":2}`, 201, nil)
		base := ts.URL + "/v1/tenants/" + id
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					resp, err := http.Post(base+"/observe", "application/json",
						strings.NewReader(pointsBody(20, int64(w*10+i))))
					if err != nil {
						t.Errorf("observe during delete: %v", err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					switch resp.StatusCode {
					case 202, 404, 429:
					default:
						t.Errorf("observe during delete: status %d", resp.StatusCode)
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest("DELETE", base, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("delete: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		wg.Wait()
	}
}

// TestLimitsPutDuringSwapAndAssign races the admission control surface
// against everything it guards: assign workers hammer an admission-enabled
// tenant while one goroutine cycles the limits through manual, off, and
// auto, and hot model swaps land underneath. The gates are the degraded-mode
// promise — every response is 200, 429, or 413, never 5xx — and the
// admission conservation law still holding on the quiesced /limits surface.
func TestLimitsPutDuringSwapAndAssign(t *testing.T) {
	_, ts := newTestServer(t, Config{Admission: true, P99Budget: 20 * time.Millisecond})
	do(t, "POST", ts.URL+"/v1/tenants", `{"id":"lim","k":2,"seed":33,"admission":"on"}`, 201, nil)
	base := ts.URL + "/v1/tenants/lim"
	do(t, "POST", base+"/fit", pointsBody(120, 1), 200, nil)

	stop := make(chan struct{})
	var got5xx, badStatus, served atomic.Int64
	var wg sync.WaitGroup
	const readers = 6
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := pointsBody(8+8*(w%3), int64(200+w))
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(base+"/assign", "application/json", strings.NewReader(body))
				if err != nil {
					badStatus.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch {
				case resp.StatusCode == 200:
					served.Add(1)
				case resp.StatusCode == 429 || resp.StatusCode == 413:
					// shed: the admission contract under churn
				case resp.StatusCode >= 500:
					got5xx.Add(1)
				default:
					badStatus.Add(1)
				}
			}
		}(w)
	}

	// One goroutine churns the limits; the main goroutine lands hot swaps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		bodies := []string{
			`{"mode":"manual","assign_rate_objects_per_sec":500,"assign_burst_objects":64}`,
			`{"mode":"off"}`,
			`{"mode":"auto"}`,
			`{"mode":"manual","assign_rate_objects_per_sec":50,"assign_burst_objects":8}`,
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			req, err := http.NewRequest("PUT", base+"/limits", strings.NewReader(bodies[i%len(bodies)]))
			if err != nil {
				t.Errorf("PUT limits: %v", err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Errorf("PUT limits: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Errorf("PUT limits: status %d", resp.StatusCode)
				return
			}
		}
	}()
	for swaps := 0; swaps < 4; swaps++ {
		do(t, "POST", base+"/fit", pointsBody(120, int64(40+swaps)), 200, nil)
	}
	close(stop)
	wg.Wait()

	if got5xx.Load() != 0 {
		t.Fatalf("%d responses were 5xx during limits churn; shedding must stay 4xx", got5xx.Load())
	}
	if badStatus.Load() != 0 {
		t.Fatalf("%d responses were outside the 200/429/413 contract", badStatus.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no assigns served while limits churned")
	}

	var lim limitsInfo
	do(t, "GET", base+"/limits", "", 200, &lim)
	for _, rl := range []routeLimits{lim.Assign, lim.Observe} {
		if rl.AttemptsTotal != rl.AdmittedTotal+rl.Shed429Total+rl.Shed413Total {
			t.Fatalf("admission conservation violated after churn: %+v", rl)
		}
	}
}

// TestAssignVersionNamesItsModel hot-swaps two models that label the same
// two blobs oppositely while assigns and model downloads run concurrently.
// Model A is installed under every odd version and model B under every
// even one, so each assign reply's model_version must name the model whose
// labels it returned, and each GET /model payload must be the model its
// X-Model-Version header names.
func TestAssignVersionNamesItsModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	api := ts.URL + "/v1/tenants/"
	probe := pointsBody(256, 77) // even points on blob 0, odd on blob 1
	blob0Label := func(id string) int {
		var out struct {
			Assign []int `json:"assign"`
		}
		do(t, "POST", api+id+"/assign", probe, 200, &out)
		return out.Assign[0]
	}
	download := func(id string) (payload []byte, version string) {
		resp, err := http.Get(api + id + "/model")
		if err != nil {
			t.Error(err)
			return nil, ""
		}
		defer resp.Body.Close()
		payload, _ = io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Errorf("GET %s/model: status %d", id, resp.StatusCode)
		}
		return payload, resp.Header.Get("X-Model-Version")
	}
	upload := func(id string, payload []byte) {
		req, _ := http.NewRequest("PUT", api+id+"/model", bytes.NewReader(payload))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Error(err)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("PUT %s/model: status %d", id, resp.StatusCode)
		}
	}

	// Fit A, then fit with further seeds until one labels the blobs the
	// other way round.
	fit := func(id string, seed int) {
		do(t, "POST", ts.URL+"/v1/tenants", fmt.Sprintf(`{"id":%q,"k":2,"seed":%d}`, id, seed), 201, nil)
		do(t, "POST", api+id+"/fit", pointsBody(80, 6), 200, nil)
	}
	fit("a", 1)
	labelA := blob0Label("a")
	srcB := ""
	for seed := 2; seed < 40 && srcB == ""; seed++ {
		id := fmt.Sprintf("b%d", seed)
		fit(id, seed)
		if blob0Label(id) != labelA {
			srcB = id
		}
	}
	if srcB == "" {
		t.Fatal("no seed labels the blobs opposite to model A")
	}
	srcA, _ := download("a")
	srcBPayload, _ := download(srcB)

	// The serving tenant's payloads as it re-encodes them: index 1 is A
	// (odd versions), index 0 is B (even versions).
	var want [2][]byte
	do(t, "POST", ts.URL+"/v1/tenants", `{"id":"hot","k":2,"seed":1}`, 201, nil)
	upload("hot", srcA)
	want[1], _ = download("hot")
	upload("hot", srcBPayload)
	want[0], _ = download("hot")
	wantLabel := func(version int64) int {
		if version%2 == 1 {
			return labelA
		}
		return 1 - labelA
	}

	stop := make(chan struct{})
	var served, downloads, torn atomic.Int64
	var firstTear atomic.Pointer[string]
	tear := func(format string, args ...any) {
		torn.Add(1)
		msg := fmt.Sprintf(format, args...)
		firstTear.CompareAndSwap(nil, &msg)
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(api+"hot/assign", "application/json", strings.NewReader(probe))
				if err != nil {
					t.Error(err)
					return
				}
				var out struct {
					Assign  []int `json:"assign"`
					Version int64 `json:"model_version"`
				}
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 {
					t.Errorf("assign: status %d, decode error %v", resp.StatusCode, err)
					return
				}
				served.Add(1)
				l := wantLabel(out.Version)
				for i, c := range out.Assign {
					if c != l^(i%2) {
						tear("assign reply names version %d but object %d got cluster %d", out.Version, i, c)
						break
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			payload, header := download("hot")
			v, err := strconv.ParseInt(header, 10, 64)
			if err != nil {
				t.Errorf("X-Model-Version %q: %v", header, err)
				return
			}
			downloads.Add(1)
			if !bytes.Equal(payload, want[v%2]) {
				tear("GET /model payload is not the model X-Model-Version %d names", v)
			}
		}
	}()

	for i := 0; i < 150; i++ {
		if i%2 == 0 {
			upload("hot", srcA)
		} else {
			upload("hot", srcBPayload)
		}
	}
	close(stop)
	wg.Wait()

	if n := torn.Load(); n != 0 {
		t.Fatalf("%d of %d replies were torn across a swap; first: %s", n, served.Load()+downloads.Load(), *firstTear.Load())
	}
	if served.Load() == 0 || downloads.Load() == 0 {
		t.Fatalf("served %d assigns and %d downloads during the swaps", served.Load(), downloads.Load())
	}
}
