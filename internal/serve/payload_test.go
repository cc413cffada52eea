package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ucpc"
	"ucpc/internal/datasets"
	"ucpc/internal/dist"
	"ucpc/internal/rng"
	"ucpc/internal/uncertain"
)

// TestOverflowingMomentsRejected: a point or P: token whose second moment
// overflows, or a row whose second moments each fit but sum to +Inf, is a
// 400 on assign and on observe. Such objects used to be accepted and
// scored at +Inf distance from every prototype, so they all landed in
// cluster 0.
func TestOverflowingMomentsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	do(t, "POST", ts.URL+"/v1/tenants", `{"id":"t1","k":3,"algorithm":"UKM","seed":1}`, 201, nil)
	base := ts.URL + "/v1/tenants/t1"
	do(t, "POST", base+"/fit", pointsBody(90, 1), 200, nil)
	for _, body := range []string{
		`{"points":[[1e200,0]]}`,
		`{"points":[[-1e200,0]]}`,
		`{"points":[[3,1e200]]}`,
		`{"objects":[{"marginals":["P:1e200","P:0"]}]}`,
		`{"objects":[{"marginals":["P:3","P:1e200"]}]}`,
		`{"points":[[1e154,1e154]]}`,
		`{"objects":[{"marginals":["P:1e154","P:1e154"]}]}`,
	} {
		do(t, "POST", base+"/assign", body, 400, nil)
		do(t, "POST", base+"/observe", body, 400, nil)
	}
	do(t, "POST", base+"/assign", `{"points":[[1e150,0]]}`, 200, nil)
}

// TestWideFirstRowBounded: a payload whose first row is wide and whose
// other rows are narrow is a dims-mismatch 400 on assign, and decoding it
// allocates in proportion to the body; a decoder that reserved every row
// at the first row's width would, at the body cap, ask for hundreds of
// gigabytes and kill the daemon.
func TestWideFirstRowBounded(t *testing.T) {
	const wide, narrow = 4096, 4096
	body := `{"points":[[0` + strings.Repeat(",0", wide-1) + "]" + strings.Repeat(",[0]", narrow) + "]}"
	var p objectsPayload
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := p.dataset()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ucpc.ErrDimMismatch) {
		t.Fatalf("dataset() err = %v, want ErrDimMismatch", err)
	}
	// Reserving 4097 rows at the first row's width would be about 400 MB;
	// the body itself is 24 kB.
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Fatalf("dataset() allocated %d bytes on a %d-byte body", got, len(body))
	}
	_, ts := newTestServer(t, Config{})
	do(t, "POST", ts.URL+"/v1/tenants", `{"id":"t1","k":3,"algorithm":"UKM","seed":1}`, 201, nil)
	do(t, "POST", ts.URL+"/v1/tenants/t1/assign", body, 400, nil)
}

// payloadSeeds are JSON bodies covering every token family, mixed objects
// and points, escapes, null marginals, and dims mismatches (one a wide
// first row followed by narrow ones), plus the bodies the scanner must hand
// to encoding/json: trailing bytes, keys in another letter case, duplicate
// keys, null labels, \u escapes, a "mode" key, and whitespace alone.
func payloadSeeds() []string {
	var seeds []string
	for _, tok := range []string{
		"P:1.5", "P:1e200", "U:-1:2", "U:-1e308:1e308", "N:0:1:-inf:+inf", "N:2:1.5:0:3",
		"N:0:1:-9:-8", "N:0:1:8:9", "N:0:1:9:10", "N:0:1:2:2.000001", "N:0:1:40:41",
		"E:2:-1:+inf", "E:2:1:3", "E:2:1", "E:1e-4:0:1", "E:1e-9:0:1",
		"D:1:0.2:2:0.3:3:0.5", "D:0:0.5:1:0.5", "D:3.3:0.5:7.7:0.5", "D:0.1:0.3:0.1:0.7", "D:1:0:2:0",
		"D:10:0.3333333333333333:10:0.3333333333333333:10:0.3333333333333333",
	} {
		seeds = append(seeds, fmt.Sprintf(`{"objects":[{"marginals":[%q,"U:0:1"]}]}`, tok))
	}
	return append(seeds,
		`{"objects":[{"marginals":["N:2:1.5:0:3","E:2:1:3"],"label":4},{"marginals":["U:0:1","P:2"]}],"points":[[1,2],[3,4]]}`,
		`{"objects":[{"marginals":["U:0:1","P:2"]}],"points":[[1,2,3]]}`,
		`{"objects":[{"marginals":["U:0:1"]},{"marginals":["U:0:1","P:2"]}]}`,
		`{"points":[[0,0,0,0,0,0,0,0],[0],[0],[0]]}`,
		`{"points":[[1e200,0]]}`,
		`{"points":[[]]}`,
		`{"objects":[{"marginals":[ "P:\u0031" , "U:0:\u0032" ]}]}`,
		`{"objects":[{"marginals":["P:1",null]}]}`,
		`{"objects":[{"marginals":null}]}`,
		`{"objects":[{"marginals":"P:1"}]}`,
		`{"objects":[{"marginals":["P:1",2]}]}`,
		`{"objects":[{"marginals":5,"marginals":["P:1"]}]}`,
		`{"objects":[null]}`,
		`{}`,
		// Scanned: whitespace everywhere, labels, number forms, empty arrays.
		" \t\r\n{ \"points\" : [ [ -0 , 1.5e3 ] , [ 2E-2 , 0.25 ] ] , \"objects\" : [ { \"label\" : -7 , \"marginals\" : [ \"P:1\" , \"U:0:1\" ] } ] }\n",
		`{"objects":[{"marginals":["P:1","P:2"],"label":9223372036854775807}]}`,
		`{"objects":[{"marginals":[]}],"points":[]}`,
		`{"objects":[{}]}`,
		`{"objects":[],"points":[[1]]}`,
		// Declined by the scanner: out-of-range or non-JSON numbers and labels.
		`{"objects":[{"marginals":["P:1"],"label":9223372036854775808}]}`,
		`{"objects":[{"marginals":["P:1"],"label":1.0}]}`,
		`{"objects":[{"marginals":["P:1"],"label":"1"}]}`,
		`{"points":[[1e400]]}`,
		`{"points":[[01]]}`,
		`{"points":[[+1]]}`,
		`{"points":[[.5]]}`,
		`{"points":[[1.]]}`,
		// Trailing bytes after the value.
		`{"points":[[1,2]]} trailing`,
		`{"points":[[1,2]]}{"points":[[3]]}`,
		`{"points":[[1,2]]`,
		// Keys in another letter case, and unknown keys.
		`{"Objects":[{"MARGINALS":["P:1","P:2"],"Label":3}]}`,
		`{"POINTS":[[1,2]],"extra":{"a":[1,null]}}`,
		// Duplicate keys.
		`{"points":[[1,2]],"points":[[3,4,5]]}`,
		`{"objects":[{"marginals":["P:1"],"label":1,"label":2}]}`,
		// Null labels and other nulls.
		`{"objects":[{"marginals":["P:1","P:2"],"label":null}]}`,
		`{"objects":null,"points":[[1,2]]}`,
		`{"points":[null,[1]]}`,
		`null`,
		// \u escapes inside tokens and keys.
		`{"objects":[{"marginals":["\u0050:1","U:0:1"]}]}`,
		`{"objects":[{"\u006darginals":["P:1"]}]}`,
		// A "mode" key, valid only on refresh.
		`{"mode":"batch","points":[[1,2]]}`,
		`{"mode":"stream","objects":[{"marginals":["not a token"]}]}`,
		`{"mode":5,"points":[[1,2]]}`,
		`{"mode":null,"points":[[1,2]]}`,
		// Whitespace alone, and nothing.
		" \n\t\r ",
		"",
	)
}

// FuzzAssignPayload is a differential target for the payload reader behind
// the assign, observe, fit and refresh routes. For every body, with and
// without refresh's "mode" key, the daemon's reader (the scanner, falling
// back to encoding/json) and encoding/json alone must build identical
// datasets — same marginals, labels, moments and order — or both must
// reject with a 4xx status. It also never panics and accepts only objects
// whose every per-dimension moment is finite, with a non-negative variance.
func FuzzAssignPayload(f *testing.F) {
	for _, body := range payloadSeeds() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		if len(body) > 1<<16 {
			t.Skip()
		}
		for _, withMode := range []bool{false, true} {
			got, gotErr := parsePayload(body, withMode)
			ref, refErr := decodePayload(body, withMode)
			if (gotErr == nil) != (refErr == nil) {
				t.Fatalf("withMode=%v: scanner err %v, encoding/json err %v", withMode, gotErr, refErr)
			}
			if gotErr != nil {
				checkStatus4xx(t, gotErr)
				continue
			}
			if got.n != ref.n || got.Mode != ref.Mode {
				t.Fatalf("withMode=%v: scanner read (%d objects, mode %q), encoding/json (%d, %q)",
					withMode, got.n, got.Mode, ref.n, ref.Mode)
			}
			gotDS, gotErr := got.dataset()
			refDS, refErr := ref.dataset()
			if (gotErr == nil) != (refErr == nil) {
				t.Fatalf("withMode=%v: scanner dataset err %v, encoding/json err %v", withMode, gotErr, refErr)
			}
			if gotErr != nil {
				checkStatus4xx(t, gotErr)
				checkStatus4xx(t, refErr)
				continue
			}
			if len(gotDS) != got.n {
				t.Fatalf("%d objects from a count of %d", len(gotDS), got.n)
			}
			sameDataset(t, gotDS, refDS)
			checkFiniteMoments(t, gotDS)
		}
	})
}

func checkStatus4xx(t *testing.T, err error) {
	t.Helper()
	if c := httpStatus(err); c/100 != 4 {
		t.Fatalf("status %d for %v", c, err)
	}
}

// sameDataset fails unless a and b hold the same objects in the same order:
// IDs, labels, marginals and moment vectors.
func sameDataset(t *testing.T, a, b ucpc.Dataset) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%d objects vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.ID != y.ID || x.Label != y.Label || x.Dims() != y.Dims() {
			t.Fatalf("object %d: (id %d, label %d, %d dims) vs (%d, %d, %d)",
				i, x.ID, x.Label, x.Dims(), y.ID, y.Label, y.Dims())
		}
		for j := 0; j < x.Dims(); j++ {
			if !reflect.DeepEqual(x.Marginal(j), y.Marginal(j)) {
				t.Fatalf("object %d dim %d: %#v vs %#v", i, j, x.Marginal(j), y.Marginal(j))
			}
		}
		for _, v := range [][2][]float64{{x.Mean(), y.Mean()}, {x.SecondMoment(), y.SecondMoment()}, {x.VarVector(), y.VarVector()}} {
			for j := range v[0] {
				if math.Float64bits(v[0][j]) != math.Float64bits(v[1][j]) {
					t.Fatalf("object %d dim %d: moment %v vs %v", i, j, v[0][j], v[1][j])
				}
			}
		}
	}
}

// checkFiniteMoments fails on any accepted object with a non-finite moment
// or a negative variance.
func checkFiniteMoments(t *testing.T, ds ucpc.Dataset) {
	t.Helper()
	mom := uncertain.MomentsOf(ds)
	for i := 0; i < mom.Len(); i++ {
		mu, mu2, s2 := mom.Mu(i), mom.Mu2(i), mom.Sigma2(i)
		for j := range mu {
			if math.IsNaN(mu[j]) || math.IsInf(mu[j], 0) || math.IsNaN(mu2[j]) || math.IsInf(mu2[j], 0) ||
				math.IsNaN(s2[j]) || math.IsInf(s2[j], 0) || s2[j] < 0 {
				t.Fatalf("object %d dim %d accepted with moments (%v, %v, %v)", i, j, mu[j], mu2[j], s2[j])
			}
		}
	}
}

// TestPayloadScannerCoverage pins which seeds the scanner reads itself and
// which it hands to encoding/json, so a scanner that quietly declined
// everything could not pass the differential target.
func TestPayloadScannerCoverage(t *testing.T) {
	for _, tc := range []struct {
		body     string
		withMode bool
		scanned  bool
	}{
		{`{"points":[[1,2]]}`, false, true},
		{" {\"objects\" : [ {\"label\":3, \"marginals\":[\"P:1\"]} ] } \n", false, true},
		{`{"mode":"batch","points":[[1,2]]}`, true, true},
		{`{"mode":"batch","points":[[1,2]]}`, false, false},
		{`{"points":[[1,2]]} x`, false, false},
		{`{"Points":[[1,2]]}`, false, false},
		{`{"points":[[1,2]],"points":[[1,2]]}`, false, false},
		{`{"objects":[{"marginals":["P:1"],"label":null}]}`, false, false},
		{`{"objects":[{"marginals":["P:\u0031"]}]}`, false, false},
		{`{"points":[[1e400]]}`, false, false},
		{" \n ", false, false},
	} {
		sc := &payloadScanner{body: tc.body, withMode: tc.withMode}
		if got := sc.walk(); got != tc.scanned {
			t.Errorf("walk(%q, withMode=%v) = %v, want %v", tc.body, tc.withMode, got, tc.scanned)
		}
	}
}

// TestPlainBytes: the eight-bytes-at-a-time check agrees with a byte-wise
// one for every byte value at every offset of a two-word string.
func TestPlainBytes(t *testing.T) {
	for c := 0; c < 256; c++ {
		want := c >= 0x20 && c < 0x80 && c != '\\'
		for pos := 0; pos < 17; pos++ {
			v := []byte(strings.Repeat("N:0.5", 4)[:17])
			v[pos] = byte(c)
			if got := plain(string(v)); got != want {
				t.Fatalf("plain with byte %#x at %d = %v, want %v", c, pos, got, want)
			}
		}
	}
}

// TestPayloadScanAllocs: the counting walk over a points-free assign body
// allocates nothing, so admission decides before the daemon pays for
// anything but the body itself.
func TestPayloadScanAllocs(t *testing.T) {
	body := nBody(t, 64, 42)
	allocs := testing.AllocsPerRun(20, func() {
		sc := payloadScanner{body: body}
		if !sc.walk() || sc.objects != 64 || sc.tokens != 64*42 {
			t.Fatalf("walk declined the body or miscounted: %d objects, %d tokens", sc.objects, sc.tokens)
		}
	})
	if allocs != 0 {
		t.Fatalf("counting walk made %v allocations, want 0", allocs)
	}
}

// TestScannedWideFirstRowBounded: the scanner sizes its stores from the
// counting walk, so TestWideFirstRowBounded's body allocates in proportion
// to itself on the daemon's path too.
func TestScannedWideFirstRowBounded(t *testing.T) {
	body := `{"points":[[0` + strings.Repeat(",0", 4095) + "]" + strings.Repeat(",[0]", 4096) + "]}"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p, err := parsePayload(body, false)
	if err != nil || p.scan == nil {
		t.Fatalf("parsePayload: err %v, scanned %v", err, p != nil && p.scan != nil)
	}
	_, err = p.dataset()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ucpc.ErrDimMismatch) {
		t.Fatalf("dataset() err = %v, want ErrDimMismatch", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
		t.Fatalf("scan and dataset() allocated %d bytes on a %d-byte body", got, len(body))
	}
}

// TestShedBeforeParse: admission decides on the scanned object count, so
// an over-budget assign or observe is refused 429 or 413 even when a token
// is malformed, and a malformed request that was admitted answers 400 yet
// still balances attempts = admitted + shed and returns its in-flight slot.
func TestShedBeforeParse(t *testing.T) {
	clk := newFakeClock() // pinned: the manual buckets never refill
	s, ts := newTestServer(t, Config{Admission: true, clock: clk.now})
	do(t, "POST", ts.URL+"/v1/tenants", `{"id":"sp","k":2,"seed":5,"admission":"on"}`, 201, nil)
	base := ts.URL + "/v1/tenants/sp"
	do(t, "POST", base+"/fit", pointsBody(90, 1), 200, nil)
	do(t, "PUT", base+"/limits", `{"mode":"manual","assign_rate_objects_per_sec":1,"assign_burst_objects":8,`+
		`"observe_rate_objects_per_sec":1,"observe_burst_objects":8}`, 200, nil)

	bad := func(n int) string {
		return `{"objects":[` + strings.TrimSuffix(strings.Repeat(`{"marginals":["N:0:1:bogus","P:1"]},`, n), ",") + `]}`
	}
	for _, route := range []string{"/assign", "/observe"} {
		do(t, "POST", base+route, bad(16), 413, nil) // beyond the burst
		do(t, "POST", base+route, bad(4), 400, nil)  // admitted, then the token fails
		do(t, "POST", base+route, bad(4), 400, nil)
		do(t, "POST", base+route, bad(4), 429, nil) // the bucket is empty
	}

	var lim limitsInfo
	do(t, "GET", base+"/limits", "", 200, &lim)
	for name, rl := range map[string]routeLimits{"assign": lim.Assign, "observe": lim.Observe} {
		if rl.AttemptsTotal != 4 || rl.AdmittedTotal != 2 || rl.Shed429Total != 1 || rl.Shed413Total != 1 {
			t.Errorf("%s: attempts %d, admitted %d, shed 429 %d, shed 413 %d; want 4, 2, 1, 1",
				name, rl.AttemptsTotal, rl.AdmittedTotal, rl.Shed429Total, rl.Shed413Total)
		}
	}
	tn, _ := s.reg.get("sp")
	ra := &tn.adm.routes[routeAssign]
	if reqs, objs := ra.inflightReqs.Load(), ra.inflightObjects.Load(); reqs != 0 || objs != 0 {
		t.Fatalf("admitted assigns that failed to parse left %d requests, %d objects in flight", reqs, objs)
	}
}

// nBody is a KDD-shaped assign body: n objects of m N: tokens.
func nBody(tb testing.TB, n, m int) string {
	r := rng.New(7)
	var body strings.Builder
	body.WriteString(`{"objects":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		body.WriteString(`{"marginals":[`)
		for j := 0; j < m; j++ {
			tok, err := datasets.FormatMarginal(dist.NewTruncNormalCentral(r.Normal(0, 10), 0.1+r.Float64(), 0.95))
			if err != nil {
				tb.Fatal(err)
			}
			if j > 0 {
				body.WriteByte(',')
			}
			fmt.Fprintf(&body, "%q", tok)
		}
		body.WriteString(`]}`)
	}
	body.WriteString(`]}`)
	return body.String()
}

var (
	sinkMoments *uncertain.Moments
	sinkPayload objectsPayload
)

// BenchmarkAssignPayload times the assign route's parse stage on a
// 64-object, 42-dimension N: payload (the KDD-shaped assign batch):
// encoding/json's decode, the scanner that replaces it on the daemon's
// path (both walks), then dataset() and the MomentsOf that Model.Assign
// packs.
func BenchmarkAssignPayload(b *testing.B) {
	const n, m = 64, 42
	body := nBody(b, n, m)
	var p objectsPayload
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		raw := []byte(body)
		for i := 0; i < b.N; i++ {
			var q objectsPayload
			if err := json.Unmarshal(raw, &q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q, err := parsePayload(body, false)
			if err != nil || q.scan == nil {
				b.Fatalf("scanner declined the body: %v", err)
			}
			q.scan.fill(&q.objectsPayload)
			sinkPayload = q.objectsPayload
		}
	})
	b.Run("dataset+MomentsOf", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ds, err := p.dataset()
			if err != nil {
				b.Fatal(err)
			}
			sinkMoments = uncertain.MomentsOf(ds)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*m), "ns/token")
	})
}
