// Command perfbench is the repository benchmark: one seeded load-generator
// process that drives a ucpcd daemon built from the tree (workloads
// serve-assign and serve-ingest) or the library in process (workload fit),
// checks every output it receives, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload serve-assign --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With --trace 1 it carries the per-layer metrics: the
// drive's first segments run untraced and the rest traced (the latency
// difference is the tracing overhead), every traced request is replayed
// serially through the public stage functions, and an in-process sweep
// times each module's public functions. Spans stay in memory and are written to
// .bench_build/spans-<workload>-<seed>.jsonl when the run ends.
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// provenance and accounting record. The exit code is 0 only when a result
// was printed.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Fixed workload parameters. Rates are constants, never calibrated per run:
// a recalibrated rate would hide a speed-up or a slow-down.
const (
	dims      = 42 // KDD-shaped objects
	kClusters = 16 // every fitted and served model
	maxIter   = 5  // iteration cap of every timed fit (see README)
	nFit      = 20000
	nUKmed    = 5000
	nTrain    = 8000 // training set of the served model

	serveFitCycles = 3   // lineup cycles behind fit_s on the serve workloads
	assignBig      = 64  // objects per serve-assign request
	ingestSize     = 500 // objects per observe chunk
	streamN        = 200000
	streamBat      = 8192

	// serve-assign rates. Two closed-loop connections carry ~160 req/s of
	// 64-object assigns on the reference box (2 vCPU Xeon, generator and
	// daemon sharing it); light is ~40% of that, overload is about twice the
	// admission bucket's auto-sized rate (0.6 / uncontended cost, ~55 req/s)
	// and still below capacity.
	lightRate    = 60.0  // req/s
	lightShare   = 0.68  // of each segment; 1000+ light requests at the default 25 s
	overloadRate = 120.0 // req/s
	trickleRate  = 120.0 // req/s, serve-ingest single-object assigns
	swapEvery    = 20000 // accepted objects between snapshot hot swaps on serve-ingest
	p99Budget    = 250 * time.Millisecond
	conns        = 2 // connections and generator threads (nproc of the reference box)
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run: its arguments, the metrics it reports, the
// operation and check ledger, and the tracer (nil when tracing is off).
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	ucpcd    string

	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string
	phases    []phaseLedger
	checks    map[string]bool
	daemonCmd []string
	tr        *tracer
	reqs      atomic.Int64 // request ids for spans
}

// op records one attempted operation and whether it failed.
func (b *bench) op(ok bool, what string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, fmt.Sprintf(what, args...))
		}
	}
}

// check records a named output check; a failing check is a failed op.
func (b *bench) check(name string, ok bool, detail string, args ...any) {
	b.op(ok, name+": "+detail, args...)
	if prev, seen := b.checks[name]; seen {
		ok = ok && prev
	}
	b.checks[name] = ok
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

var workloads = map[string]func(*bench) error{
	"serve-assign": runServeAssign,
	"serve-ingest": runServeIngest,
	"fit":          runFit,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "serve-assign, serve-ingest or fit")
		seed     = fs.Uint64("seed", 1, "workload seed (inputs are a pure function of it)")
		seconds  = fs.Float64("seconds", 25, "measured seconds")
		trace    = fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
		ucpcd    = fs.String("ucpcd", ".bench_build/ucpcd", "daemon binary built from the tree")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *seed == 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload %s, --seed >= 1, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1, ucpcd: *ucpcd,
		metrics: map[string]metric{}, checks: map[string]bool{},
	}
	if b.traced {
		b.tr = newTracer()
	}
	start := time.Now()
	if err := fn(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if b.tr != nil {
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", b.workload, b.seed))
		if err := b.tr.writeFile(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
	}
	if err := b.validateMetrics(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, f := range b.failures {
		fmt.Fprintf(stderr, "perfbench: failed: %s\n", f)
	}
	if b.attempted == 0 {
		b.attempted = 1 // the run itself
	}
	info := map[string]any{
		"provenance": provenance(b),
		"phases":     b.phases,
		"checks":     b.checks,
		"wall_s":     time.Since(start).Seconds(),
	}
	extra, _ := json.Marshal(info) // plain maps and structs of numbers and strings
	fmt.Fprintln(stdout, string(extra))
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
	line, _ := json.Marshal(res) // numbers, strings and a bool
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// validateMetrics refuses to print a result that misses a declared metric
// of the selected kind or carries a non-finite value.
func (b *bench) validateMetrics() error {
	want := endToEnd
	if b.traced {
		want = perLayer
	}
	var missing []string
	for _, name := range want {
		if _, ok := b.metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	for name, m := range b.metrics {
		if m.Value != m.Value || m.Value > 1e300 || m.Value < -1e300 {
			return fmt.Errorf("metric %s is not finite", name)
		}
	}
	keep := map[string]metric{}
	for _, name := range want {
		keep[name] = b.metrics[name]
	}
	b.metrics = keep
	return nil
}

// provenance is the record that makes a result reproducible: what ran, on
// which inputs, with which toolchain, on which hardware.
func provenance(b *bench) map[string]any {
	return map[string]any{
		"workload":    b.workload,
		"seed":        b.seed,
		"seconds":     b.seconds,
		"trace":       b.traced,
		"commit":      commitID(),
		"go_version":  runtime.Version(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"nproc":       runtime.NumCPU(),
		"cpu_model":   cpuModel(),
		"ucpcd_flags": b.daemonCmd,
		"rerun":       fmt.Sprintf("bash perfbench/run.sh --workload %s --seed <held-out seed> --seconds %g --trace %d", b.workload, b.seconds, boolInt(b.traced)),
	}
}

func boolInt(v bool) int {
	if v {
		return 1
	}
	return 0
}

// commitID names the measured code: the git HEAD when the checkout is a
// repository, else "tree:" plus a hash of every Go source and module file
// of the tree.
func commitID() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if r, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", r)); err == nil {
				return strings.TrimSpace(string(id))
			}
		} else {
			return ref
		}
	}
	h, err := treeHash(".")
	if err != nil {
		return "unknown"
	}
	return "tree:" + h
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// treeHash hashes every .go, go.mod and go.sum file under root, skipping
// the build directory and hidden directories, in path order.
func treeHash(root string) (string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") || name == "go.mod" || name == "go.sum" {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, _ = io.WriteString(h, p+"\x00") // writes to a hash never fail
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
