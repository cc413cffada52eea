package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
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
// first row followed by narrow ones).
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
	)
}

// FuzzAssignPayload: the payload decoder behind the assign, observe, fit
// and refresh routes never panics, rejects only with a 4xx status, and
// accepts only objects whose every per-dimension moment is finite, with
// a non-negative variance.
func FuzzAssignPayload(f *testing.F) {
	for _, body := range payloadSeeds() {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		if len(body) > 1<<16 {
			t.Skip()
		}
		var p objectsPayload
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&p); err != nil {
			return // decodeBody answers these 400 before dataset() runs
		}
		ds, err := p.dataset()
		if err != nil {
			if c := httpStatus(err); c/100 != 4 {
				t.Fatalf("status %d for %v", c, err)
			}
			return
		}
		if len(ds) != len(p.Objects)+len(p.Points) {
			t.Fatalf("%d objects from %d objects and %d points", len(ds), len(p.Objects), len(p.Points))
		}
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
	})
}

var sinkMoments *uncertain.Moments

// BenchmarkAssignPayload times the assign route's parse stage on a
// 64-object, 42-dimension N: payload (the KDD-shaped assign batch): the
// JSON decode, then dataset() and the MomentsOf that Model.Assign packs.
func BenchmarkAssignPayload(b *testing.B) {
	const n, m = 64, 42
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
				b.Fatal(err)
			}
			if j > 0 {
				body.WriteByte(',')
			}
			fmt.Fprintf(&body, "%q", tok)
		}
		body.WriteString(`]}`)
	}
	body.WriteString(`]}`)
	var p objectsPayload
	if err := json.Unmarshal([]byte(body.String()), &p); err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		raw := []byte(body.String())
		for i := 0; i < b.N; i++ {
			var q objectsPayload
			if err := json.Unmarshal(raw, &q); err != nil {
				b.Fatal(err)
			}
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
