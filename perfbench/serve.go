package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// jobStatus is the part of apusimd's job JSON the load generator reads.
type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	TraceID   string `json:"trace_id"`
	CacheHit  bool   `json:"cache_hit"`
	Heartbeat bool   `json:"heartbeat"`
}

func terminal(state string) bool {
	switch state {
	case "ok", "degraded", "violated", "failed", "cancelled", "timeout":
		return true
	}
	return false
}

// client is one closed-loop load-generator client with its own
// connection.
type client struct {
	hc   *http.Client
	base string
	ref  *reference
	tr   *tracer
}

func newClient(base string, ref *reference, tr *tracer) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		base: base, ref: ref, tr: tr,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// opRecord is one serving operation: submit, watch until terminal if the
// job was not already, fetch the manifest.
type opRecord struct {
	start                    time.Time
	total                    time.Duration
	submit, watch, manifest  time.Duration
	watched, miss            bool
	jobID, traceID, failedAs string
	rootSpan                 int
}

// op runs one serving operation. A refused submission (429/503) or a job
// that ends failed or timed out is a failed op, which is counted; a wrong
// status or manifest is an error, which aborts the run.
func (c *client) op(ctx context.Context, s jobSpec) (opRecord, error) {
	r := opRecord{start: time.Now()}
	var spanIDs []int
	finish := func() (opRecord, error) {
		end := time.Now()
		r.total = end.Sub(r.start)
		r.rootSpan = c.tr.record("bench.op", r.traceID, 0, r.start, end)
		for _, id := range spanIDs {
			c.tr.setParent(id, r.rootSpan, r.traceID)
		}
		return r, nil
	}

	t0 := time.Now()
	code, body, err := c.do(ctx, http.MethodPost, "/v1/jobs", s.body())
	r.submit = time.Since(t0)
	spanIDs = append(spanIDs, c.tr.record("http.submit", "", 0, t0, t0.Add(r.submit)))
	if err != nil {
		return r, err
	}
	switch code {
	case http.StatusOK, http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		r.failedAs = "http " + strconv.Itoa(code)
		return finish()
	default:
		return r, fmt.Errorf("submit %s: HTTP %d: %s", s.Experiment, code, body)
	}
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return r, fmt.Errorf("submit %s: %w", s.Experiment, err)
	}
	r.jobID, r.traceID, r.miss = st.ID, st.TraceID, !st.CacheHit

	if !terminal(st.State) {
		t1 := time.Now()
		st, err = c.watch(ctx, st.ID)
		r.watch, r.watched = time.Since(t1), true
		spanIDs = append(spanIDs, c.tr.record("http.watch", "", 0, t1, t1.Add(r.watch)))
		if err != nil {
			return r, err
		}
	}
	want := c.ref.Experiments[s.Experiment].Status
	switch {
	case st.State == "failed" || st.State == "timeout" || st.State == "cancelled":
		r.failedAs = "job " + st.State
		return finish()
	case st.State != want:
		return r, fmt.Errorf("experiment %s: job %s ended %q, want %q", s.Experiment, st.ID, st.State, want)
	}

	t2 := time.Now()
	code, body, err = c.do(ctx, http.MethodGet, "/v1/jobs/"+st.ID+"/manifest", nil)
	r.manifest = time.Since(t2)
	spanIDs = append(spanIDs, c.tr.record("http.manifest", "", 0, t2, t2.Add(r.manifest)))
	if err != nil {
		return r, err
	}
	if code != http.StatusOK {
		return r, fmt.Errorf("manifest of %s: HTTP %d: %s", st.ID, code, body)
	}
	if err := c.ref.checkManifest(s.Experiment, body); err != nil {
		return r, err
	}
	return finish()
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// watch streams a job's transitions (?watch=1) until it is terminal.
func (c *client) watch(ctx context.Context, id string) (jobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"?watch=1", nil)
	if err != nil {
		return jobStatus{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return jobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobStatus{}, fmt.Errorf("watch %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		var st jobStatus
		if err := json.Unmarshal(sc.Bytes(), &st); err != nil {
			return jobStatus{}, fmt.Errorf("watch %s: %w", id, err)
		}
		if !st.Heartbeat && terminal(st.State) {
			_, _ = io.Copy(io.Discard, resp.Body)
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return jobStatus{}, fmt.Errorf("watch %s: %w", id, err)
	}
	return jobStatus{}, fmt.Errorf("watch %s: stream ended before a terminal state", id)
}

// opMark calls fn once, when the at-th op of a drive completes.
type opMark struct {
	at   int64
	fn   func()
	done atomic.Int64
}

func (m *opMark) count() {
	if m != nil && m.done.Add(1) == m.at {
		m.fn()
	}
}

// drive runs one closed-loop client per stream until budget has elapsed,
// or until limit ops per client when limit > 0. It returns every op in
// completion order per client.
func drive(base string, ref *reference, tr *tracer, streams []*opStream, budget time.Duration, limit int, mark *opMark) ([]opRecord, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	deadline := time.Now().Add(budget)
	var (
		mu       sync.Mutex
		all      []opRecord
		firstErr error
		wg       sync.WaitGroup
	)
	for _, st := range streams {
		wg.Add(1)
		go func(st *opStream) {
			defer wg.Done()
			c := newClient(base, ref, tr)
			defer c.close()
			var mine []opRecord
			for n := 0; (limit > 0 && n < limit) || (limit == 0 && time.Now().Before(deadline)); n++ {
				s, _ := st.next()
				r, err := c.op(ctx, s)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
						cancel()
					}
					mu.Unlock()
					return
				}
				mine = append(mine, r)
				mark.count()
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(st)
	}
	wg.Wait()
	return all, firstErr
}

// clients is the closed-loop client count (and connection count): one
// per core of the 2-core reference box.
const clients = 2

func clientStreams(seed uint64, base uint64, pool []jobSpec, misses bool) []*opStream {
	var out []*opStream
	for i := 0; i < clients; i++ {
		out = append(out, newOpStream(seed, base+uint64(i), pool, misses))
	}
	return out
}

// window is the slice of a serve run over which throughput and the tail
// percentile are taken; a run reports the median over its windows, so a
// burst of interference from outside the benchmark moves one window, not
// the run's figure.
const window = time.Second

// serveE2E fills the end-to-end metrics of a serve run from its ops.
// Latencies are over completed ops; refused and failed ones count against
// ops_ok_frac instead, which has the tightest bound. op_mean_ms is the
// figure the misses of serve-durable move: they are one op in missEvery,
// so they sit above every window's median, but each adds its full
// latency to its window's mean. It is reported per layer, not gated:
// miss latency swings with the shared host's load far more than hit
// latency, which makes it too noisy to gate (README.md, "Measured").
func serveE2E(out *outcome, ops []opRecord, wall time.Duration) {
	var lat []float64
	var first time.Time
	for _, r := range ops {
		if r.failedAs != "" {
			out.failed++
			continue
		}
		lat = append(lat, r.total.Seconds()*1e3)
		if first.IsZero() || r.start.Before(first) {
			first = r.start
		}
	}
	out.attempted += len(ops)
	out.metrics["ops_ok_frac"] = float64(len(lat)) / float64(max(len(ops), 1))

	// Per-window median, throughput and tail; a trailing partial window is
	// dropped.
	n := max(int(wall/window), 1)
	perWin := make([][]float64, n)
	for _, r := range ops {
		if w := int(r.start.Sub(first) / window); r.failedAs == "" && w < n {
			perWin[w] = append(perWin[w], r.total.Seconds()*1e3)
		}
	}
	span := min(wall, window)
	var meds, means, rates, tails []float64
	tailP := 0.0
	for _, w := range perWin {
		meds = append(meds, median(w))
		means = append(means, mean(w))
		rates = append(rates, float64(len(w))/span.Seconds())
		if p, v, ok := tailPercentile(w); ok {
			tails, tailP = append(tails, v), p
		}
	}
	if len(tails) == 0 {
		tails = []float64{median(lat)}
	}
	out.metrics["op_p50_ms"] = median(meds)
	out.metrics["op_mean_ms"] = median(means)
	out.metrics["ops_per_s"] = median(rates)
	out.metrics["op_tail_ms"] = median(tails)
	out.notes = append(out.notes, fmt.Sprintf("%d ops over %.2fs in %d windows of %s; op_p50_ms, op_mean_ms, ops_per_s and op_tail_ms (p%g, >= %d samples beyond) are medians over windows",
		len(ops), wall.Seconds(), n, window, tailP, minBeyond))
}

// opLayerMetrics fills the client-side per-layer metrics of a serve run.
func opLayerMetrics(m map[string]float64, ops []opRecord) {
	var submit, manifest, watch, miss []float64
	for _, r := range ops {
		if r.failedAs != "" {
			continue
		}
		submit = append(submit, r.submit.Seconds()*1e3)
		manifest = append(manifest, r.manifest.Seconds()*1e3)
		if r.watched {
			watch = append(watch, r.watch.Seconds()*1e3)
		}
		if r.miss {
			miss = append(miss, r.total.Seconds()*1e3)
		}
	}
	m["http.submit_p50_ms"] = median(submit)
	m["http.manifest_p50_ms"] = median(manifest)
	m["http.watch_p50_ms"] = median(watch)
	m["serve.miss_p50_ms"] = median(miss)
	if _, v, ok := tailPercentile(miss); ok {
		m["serve.miss_tail_ms"] = v
	} else {
		m["serve.miss_tail_ms"] = 0
	}
}

// daemonLayerMetrics fills the per-layer metrics read from the daemon's
// /v1/metrics between two scrapes.
func daemonLayerMetrics(m map[string]float64, before, after map[string]float64) {
	d := func(k string) float64 { return after[k] - before[k] }
	hits, misses, coalesced := d("apusimd_cache_hits_total"), d("apusimd_cache_misses_total"), d("apusimd_cache_coalesced_total")
	m["service.cache_hit_ratio"] = ratio(hits, hits+misses+coalesced)
	m["service.store_fallthrough_ratio"] = ratio(d("apusimd_cache_disk_hits_total"), hits)
	m["durable.journal.syncs_per_append"] = ratio(d("apusimd_journal_syncs_total"), d("apusimd_journal_appends_total"))
	tenant := `tenant="default"`
	m["service.queue_wait_p50_ms"] = histQuantile(before, after, "apusimd_tenant_queue_wait_seconds", tenant, 0.5) * 1e3
	m["service.run_p50_ms"] = histQuantile(before, after, "apusimd_tenant_run_seconds", tenant, 0.5) * 1e3
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// dirBytes sums the sizes of the files in dir whose names start with
// prefix.
func dirBytes(dir, prefix string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if e.Type().IsRegular() && len(e.Name()) >= len(prefix) && e.Name()[:len(prefix)] == prefix {
			info, err := e.Info()
			if err != nil {
				return 0, err
			}
			n += info.Size()
		}
	}
	return n, nil
}

// copyDir copies a flat tree of regular files and directories.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
