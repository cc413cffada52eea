package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestSummarizeTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n      int
		pct    float64
		val    float64
		beyond int
	}{
		// p99 once 1000 samples leave ten beyond it.
		{1000, 99, 990, 10},
		{2000, 99, 1980, 20},
		// Fewer samples: the highest rank with ten beyond it.
		{500, 98, 490, 10},
		{100, 90, 90, 10},
		{21, 100 * 11.0 / 21, 11, 10},
		// Too few for any tail: the median rank.
		{5, 60, 3, 2},
	}
	for _, c := range cases {
		tl := summarize(seq(c.n))
		if tl.N != c.n || tl.PctVal != c.val || tl.Beyond != c.beyond || abs(tl.Pct-c.pct) > 1e-9 {
			t.Errorf("n=%d: got pct %.4f val %v beyond %d, want %.4f %v %d",
				c.n, tl.Pct, tl.PctVal, tl.Beyond, c.pct, c.val, c.beyond)
		}
		if tl.Beyond < minBeyond && c.n > 2*minBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", c.n, tl.Beyond)
		}
	}
	if got := summarize([]float64{4, 1, 3, 2}).P50; got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestDueTimeLatency replays a fake schedule of 10 ms arrivals where the
// generator stalls for 40 ms: every delayed request is charged the wait
// from its due time, and lateness records how far behind the sends ran.
func TestDueTimeLatency(t *testing.T) {
	t0 := time.Unix(1000, 0)
	ms := func(v int) time.Time { return t0.Add(time.Duration(v) * time.Millisecond) }
	s := schedule{start: t0}
	for i := 0; i < 5; i++ {
		s.offs = append(s.offs, time.Duration(10*i)*time.Millisecond)
	}
	shots := []timing{
		{due: s.due(0), sent: ms(0), done: ms(5)},
		{due: s.due(1), sent: ms(50), done: ms(55)}, // stalled 40 ms
		{due: s.due(2), sent: ms(55), done: ms(60)},
		{due: s.due(3), sent: ms(60), done: ms(65)},
		{due: s.due(4), sent: ms(40), done: ms(45)}, // on time
	}
	wantLat := []int{5, 45, 40, 35, 5}
	wantLate := []int{0, 40, 35, 30, 0}
	for i, sh := range shots {
		if sh.latency() != time.Duration(wantLat[i])*time.Millisecond {
			t.Errorf("request %d latency %v, want %dms", i, sh.latency(), wantLat[i])
		}
		if sh.late() != time.Duration(wantLate[i])*time.Millisecond {
			t.Errorf("request %d late %v, want %dms", i, sh.late(), wantLate[i])
		}
	}
	// A send ahead of its due time is not negative lateness.
	early := timing{due: ms(10), sent: ms(8), done: ms(12)}
	if early.late() != 0 || early.latency() != 2*time.Millisecond {
		t.Errorf("early send: late %v latency %v", early.late(), early.latency())
	}
}

func TestFixedSchedule(t *testing.T) {
	t0 := time.Unix(1000, 0)
	s := fixedSchedule(t0, 200, 10*time.Second)
	if s.len() != 2000 {
		t.Fatalf("arrivals %d, want 2000", s.len())
	}
	if s.due(0) != t0 || s.due(3) != t0.Add(15*time.Millisecond) || s.offs[1999] >= 10*time.Second {
		t.Errorf("due(0) %v due(3) %v last %v", s.due(0), s.due(3), s.offs[1999])
	}
}

func TestSelfTimesNested(t *testing.T) {
	sp := func(id, parent int64, name string, start, end int64) span {
		return span{ID: id, Parent: parent, Req: 1, Name: name, Start: start, End: end}
	}
	spans := []span{
		sp(1, 0, "http", 0, 100),
		sp(2, 1, "decode", 10, 40),
		sp(3, 2, "inner", 15, 25),
		sp(4, 1, "assign", 50, 90),
		// A second request: replayed children outside the parent interval
		// still subtract their durations.
		sp(5, 0, "http", 200, 260),
		sp(6, 5, "decode", 1000, 1020),
		sp(7, 5, "assign", 1020, 1030),
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 30, 2: 20, 3: 10, 4: 40, 5: 30, 6: 20, 7: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %d, want %d", id, self[id], w)
		}
	}
	means, roots := stageMeans(spans, "http")
	if roots != 2 {
		t.Fatalf("roots %d, want 2", roots)
	}
	var sum float64
	for _, v := range means {
		sum += v
	}
	// Self times of a request tree add up to its root span.
	if want := (100.0 + 60.0) / 2 / 1e6; abs(sum-want) > 1e-15 {
		t.Errorf("stage means sum %v, want mean root duration %v", sum, want)
	}
	if means["http"] != 30/1e6 || means["decode"] != 20/1e6 {
		t.Errorf("means %v", means)
	}
}

type declared struct{ Name, Unit string }

type benchmarkDoc struct {
	Workloads []declared
	EndToEnd  []declared `json:"end_to_end"`
	PerLayer  []declared `json:"per_layer"`
}

func benchmarkJSON(t *testing.T) benchmarkDoc {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric lists and the
// names the runs report in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	doc := benchmarkJSON(t)
	names := func(xs []declared) string {
		var s []string
		for _, x := range xs {
			s = append(s, x.Name)
		}
		return strings.Join(s, ",")
	}
	if got, want := names(doc.EndToEnd), strings.Join(endToEnd, ","); got != want {
		t.Errorf("end_to_end %s, code %s", got, want)
	}
	if got, want := names(doc.PerLayer), strings.Join(perLayer, ","); got != want {
		t.Errorf("per_layer %s, code %s", got, want)
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
}

// TestSmoke runs every workload briefly against a daemon built from the
// tree and requires a correct result with every declared metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds ucpcd and drives it")
	}
	doc := benchmarkJSON(t)
	bin := filepath.Join(t.TempDir(), "ucpcd")
	if out, err := exec.Command("go", "build", "-o", bin, "ucpc/cmd/ucpcd").CombinedOutput(); err != nil {
		t.Fatalf("building ucpcd: %v\n%s", err, out)
	}
	for _, c := range []struct {
		workload, trace string
	}{
		{"serve-assign", "0"}, {"serve-ingest", "0"}, {"fit", "0"}, {"serve-ingest", "1"},
	} {
		t.Run(c.workload+"/trace"+c.trace, func(t *testing.T) {
			var out, errOut bytes.Buffer
			code := run([]string{"-ucpcd", bin, "--workload", c.workload, "--seed", "7",
				"--seconds", "2", "--trace", c.trace}, &out, &errOut)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			want, decl := endToEnd, doc.EndToEnd
			if c.trace == "1" {
				want, decl = perLayer, doc.PerLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(want) {
				t.Fatalf("result %+v\n%s", res, errOut.String())
			}
			for _, d := range decl {
				if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("metric %s: got %+v, declared unit %s", d.Name, m, d.Unit)
				}
			}
		})
	}
}

func TestHistP99(t *testing.T) {
	// 100 requests: 90 in (0, 1ms], 9 in (1ms, 10ms], 1 above; the 99th
	// lands at the top of the second bucket.
	d := scrape{
		`ucpcd_assign_latency_seconds_bucket{le="0.001"}`: 90,
		`ucpcd_assign_latency_seconds_bucket{le="0.01"}`:  99,
		`ucpcd_assign_latency_seconds_bucket{le="+Inf"}`:  100,
		"ucpcd_assign_latency_seconds_count":              100,
	}
	if got := histP99(d); abs(got-10) > 1e-9 {
		t.Errorf("p99 %v ms, want 10", got)
	}
	// With all 10 slow requests in (1ms, 10ms], the 99th is 9/10 of the way.
	d[`ucpcd_assign_latency_seconds_bucket{le="0.01"}`] = 100
	if got := histP99(d); abs(got-9.1) > 1e-9 {
		t.Errorf("p99 %v ms, want 9.1 (interpolated)", got)
	}
	if got := histP99(scrape{}); got != 0 {
		t.Errorf("empty histogram p99 %v", got)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{}, {"--workload", "nope"}, {"--workload", "fit", "--trace", "2"},
		{"--workload", "fit", "--seconds", "0"}, {"--workload", "fit", "--seed", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
