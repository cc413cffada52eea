package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ucpc"
)

// daemon is one child ucpcd process built from the tree, so the daemon's
// allocations, GC and peak RSS are its own and not the generator's.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
}

// daemonFlags are the ucpcd flags every run uses (recorded in provenance).
func daemonFlags() []string {
	return []string{"-addr", "127.0.0.1:0", "-quiet", "-p99-budget", p99Budget.String()}
}

// startDaemon execs ucpcd and returns once it is listening.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, daemonFlags()...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.exited)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "ucpcd: listening on "); ok {
				addr <- a
			}
		}
		_ = cmd.Wait() // exit status is judged by stop
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, fmt.Errorf("%s exited before listening", bin)
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s did not start listening within 20s", bin)
	}
	d.client = &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to drain and exit, and waits until it has.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.kill()
	}
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already gone is fine
	<-d.exited
}

// do sends one request and reads the whole response.
func (d *daemon) do(method, path string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, raw, err
}

// call is do that expects status want and decodes a JSON response into v.
func (d *daemon) call(method, path string, body []byte, want int, v any) error {
	code, _, raw, err := d.do(method, path, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, code, want, bytes.TrimSpace(raw))
	}
	if v != nil {
		if err := json.Unmarshal(raw, v); err != nil {
			return fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return nil
}

type tenantSpec struct {
	ID        string `json:"id"`
	Algorithm string `json:"algorithm"`
	K         int    `json:"k"`
	Seed      uint64 `json:"seed"`
	Admission string `json:"admission"`
}

type tenantInfo struct {
	ModelVersion int64 `json:"model_version"`
	Ingested     int64 `json:"ingested_objects"`
	HasModel     bool  `json:"has_model"`
}

// observeReply is the daemon's 202 reply to an observe payload.
type observeReply struct {
	Queued   int64 `json:"queued_objects"`
	Accepted int64 `json:"accepted"`
}

func (d *daemon) createTenant(spec tenantSpec) error {
	body, _ := json.Marshal(spec) // flat struct of strings and numbers
	return d.call("POST", "/v1/tenants", body, http.StatusCreated, nil)
}

func (d *daemon) tenant(id string) (tenantInfo, error) {
	var info tenantInfo
	err := d.call("GET", "/v1/tenants/"+id, nil, http.StatusOK, &info)
	return info, err
}

func (d *daemon) putModel(id string, ucpm []byte) (tenantInfo, error) {
	var info tenantInfo
	code, _, raw, err := d.do("PUT", "/v1/tenants/"+id+"/model", ucpm)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("PUT model: status %d: %s", code, bytes.TrimSpace(raw))
	}
	if err == nil {
		err = json.Unmarshal(raw, &info)
	}
	return info, err
}

// getModel fetches the serving model and the version the daemon says it is.
func (d *daemon) getModel(id string) (*ucpc.Model, int64, error) {
	code, hdr, raw, err := d.do("GET", "/v1/tenants/"+id+"/model", nil)
	if err != nil {
		return nil, 0, err
	}
	if code != http.StatusOK {
		return nil, 0, fmt.Errorf("GET model: status %d", code)
	}
	v, err := strconv.ParseInt(hdr.Get("X-Model-Version"), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("GET model: bad X-Model-Version: %w", err)
	}
	m, err := ucpc.LoadModel(bytes.NewReader(raw))
	return m, v, err
}

// setLimits switches a tenant's admission mode (auto, manual, off).
func (d *daemon) setLimits(id string, req map[string]any) error {
	body, _ := json.Marshal(req) // flat map of strings and numbers
	return d.call("PUT", "/v1/tenants/"+id+"/limits", body, http.StatusOK, nil)
}

// scrape is one parsed /metrics exposition: series name with labels to value.
type scrape map[string]float64

func (d *daemon) scrape() (scrape, error) {
	code, _, raw, err := d.do("GET", "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	s := scrape{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		s[line[:i]] = v
	}
	return s, nil
}

// delta is after minus before for one series.
func delta(before, after scrape, series string) float64 { return after[series] - before[series] }

// histP99 is the p99 of the daemon's assign-latency histogram in deltas
// (per-series counter increments over the measured requests), in
// milliseconds, interpolated linearly inside the bucket that holds it. The
// bucket bounds are read from the series names.
func histP99(deltas scrape) float64 {
	const prefix = `ucpcd_assign_latency_seconds_bucket{le="`
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for series, cum := range deltas {
		le, ok := strings.CutPrefix(series, prefix)
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
		if err == nil && !math.IsInf(v, 1) {
			bs = append(bs, bucket{v, cum})
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	target := 0.99 * deltas["ucpcd_assign_latency_seconds_count"]
	if target <= 0 || len(bs) == 0 {
		return 0
	}
	prev := bucket{}
	for _, b := range bs {
		if b.cum >= target {
			return 1000 * (prev.le + (target-prev.cum)/(b.cum-prev.cum)*(b.le-prev.le))
		}
		prev = b
	}
	return 1000 * prev.le
}

// procStatus reads a kB field (VmHWM, VmRSS) of /proc/<pid>/status in MiB.
func procStatus(pid int, field string) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s not in /proc/%d/status", field, pid)
}

// procCPU is the user+system CPU time of a process from /proc/<pid>/stat
// (clock ticks at the Linux USER_HZ of 100).
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}
