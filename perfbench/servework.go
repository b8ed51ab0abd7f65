package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	apusim "repro"
)

// serveSetupRuns is how many times a serve run starts its daemon; the
// median start-up is setup_s and the last daemon serves the measurement.
const serveSetupRuns = 5

// warmOps is how many untimed ops each client runs before measuring:
// enough for the daemon to collect the set-up's garbage, so the peak RSS
// of the measured window does not depend on when that happened.
const warmOps = 1000

// rssOps is the measured op count after which the daemon's peak RSS is
// read.
const rssOps = 10_000

// serveSession is a measured daemon plus what the run needs from it.
type serveSession struct {
	d       *daemon
	pool    []jobSpec
	misses  bool
	dataDir string
	fillOps []opRecord
}

// startServe sets the workload's daemon up serveSetupRuns times and keeps
// the last one. serve-hits: exec until /v1/healthz answers, then the hot
// set is simulated once (the cache fill). serve-durable: a fresh copy of
// the primed dir each time (copied untimed), exec plus store open and
// journal replay until /v1/healthz answers.
func startServe(env *benchEnv) (*serveSession, float64, error) {
	ss := &serveSession{}
	args := []string{"-workers", "2"}
	if env.trace {
		args = append(args, "-debug-addr", "127.0.0.1:0")
	}
	var template string
	if env.workload == "serve-durable" {
		template = filepath.Join(env.work, "primed")
		if err := primeTemplate(template, env.seed); err != nil {
			return nil, 0, err
		}
		storeBytes, err := dirBytes(filepath.Join(template, "cache"), "")
		if err != nil {
			return nil, 0, err
		}
		// Below the stored working set, so some hits read the store.
		args = append(args, "-cache-bytes", strconv.FormatInt(storeBytes/3, 10))
		ss.pool, ss.misses = primedKeys(env.seed), true
	} else {
		ss.pool = hotSet(env.seed, modelIDs(apusim.Experiments().IDs()))
	}

	var samples []float64
	for i := 0; i < serveSetupRuns; i++ {
		runArgs := args
		if template != "" {
			ss.dataDir = filepath.Join(env.work, fmt.Sprintf("data-%d", i))
			if err := os.RemoveAll(ss.dataDir); err != nil {
				return nil, 0, err
			}
			if err := copyDir(template, ss.dataDir); err != nil {
				return nil, 0, err
			}
			runArgs = append(append([]string(nil), args...), "-data-dir", ss.dataDir)
		}
		d, boot, err := startDaemon(filepath.Join(env.bin, "apusimd"), runArgs...)
		if err != nil {
			return nil, 0, err
		}
		setup := boot
		if template == "" {
			t0 := time.Now()
			ops, err := fill(d.base, env.ref, ss.pool)
			if err != nil {
				d.kill()
				return nil, 0, err
			}
			setup += time.Since(t0)
			ss.fillOps = ops
		}
		samples = append(samples, setup.Seconds())
		if i < serveSetupRuns-1 {
			d.kill()
			if template != "" {
				if err := os.RemoveAll(ss.dataDir); err != nil {
					return nil, 0, err
				}
			}
			continue
		}
		ss.d = d
	}
	if _, err := drive(ss.d.base, env.ref, nil, clientStreams(env.seed, streamWarm, ss.pool, ss.misses), 0, warmOps, nil); err != nil {
		ss.d.kill()
		return nil, 0, err
	}
	return ss, median(samples), nil
}

// fill submits every spec once, split across the clients, and waits for
// each to finish.
func fill(base string, ref *reference, specs []jobSpec) ([]opRecord, error) {
	var (
		mu       sync.Mutex
		ops      []opRecord
		firstErr error
		wg       sync.WaitGroup
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(base, ref, nil)
			defer c.close()
			for j := i; j < len(specs); j += clients {
				r, err := c.op(context.Background(), specs[j])
				mu.Lock()
				if err == nil && r.failedAs != "" {
					err = fmt.Errorf("cache fill: %s refused (%s)", specs[j].Experiment, r.failedAs)
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
				ops = append(ops, r)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return ops, firstErr
}

// runServeWorkload measures serve-hits or serve-durable.
func runServeWorkload(env *benchEnv) (out *outcome, err error) {
	ss, setup, err := startServe(env)
	if err != nil {
		return nil, err
	}
	defer func() {
		if ss.d != nil {
			ss.d.kill()
		}
	}()
	out = &outcome{metrics: map[string]float64{"setup_s": setup}}
	streams := clientStreams(env.seed, streamClient, ss.pool, ss.misses)
	if err := resetPeakRSS(ss.d.pid()); err != nil {
		return nil, err
	}

	// The daemon's job table grows with every op, so its peak RSS is read
	// after a fixed number of measured ops: otherwise it would follow the
	// run's throughput instead of what each op costs in memory.
	var rss float64
	var rssErr error
	mark := &opMark{at: rssOps, fn: func() { rss, rssErr = peakRSSMB(ss.d.pid()) }}
	if !env.trace {
		t0 := time.Now()
		ops, err := drive(ss.d.base, env.ref, nil, streams, env.seconds, 0, mark)
		if err != nil {
			return nil, err
		}
		serveE2E(out, ops, time.Since(t0))
	} else if err := tracedServe(env, ss, streams, out); err != nil {
		return nil, err
	}
	if n := mark.done.Load(); n < rssOps {
		rss, rssErr = peakRSSMB(ss.d.pid())
		if !env.trace {
			out.notes = append(out.notes, fmt.Sprintf("peak_rss_mb read after %d ops, fewer than %d", n, rssOps))
		}
	}
	if rssErr != nil {
		return nil, rssErr
	}
	out.metrics["peak_rss_mb"] = rss
	if ss.dataDir != "" {
		jb, err := dirBytes(ss.dataDir, "journal")
		if err != nil {
			return nil, err
		}
		out.metrics["durable.journal.bytes"] = float64(jb)
	}
	d := ss.d
	ss.d = nil
	return out, d.stop()
}

// tracedServe runs half the time untraced and half traced (client spans,
// a daemon CPU profile and runtime counters), joins a sample of misses
// with the daemon's job traces, and fills the serve per-layer metrics.
func tracedServe(env *benchEnv, ss *serveSession, streams []*opStream, out *outcome) error {
	half := env.seconds / 2
	t0 := time.Now()
	plain, err := drive(ss.d.base, env.ref, nil, streams, half, 0, nil)
	if err != nil {
		return err
	}
	plainWall := time.Since(t0)

	before, err := get(ss.d.base + "/v1/metrics")
	if err != nil {
		return err
	}
	heap0, err := get(ss.d.debug + "/debug/pprof/heap?debug=1")
	if err != nil {
		return err
	}
	profSecs := max(int(half.Seconds())-1, 1)
	var prof []byte
	var profErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		prof, profErr = get(ss.d.debug + "/debug/pprof/profile?seconds=" + strconv.Itoa(profSecs))
	}()
	t1 := time.Now()
	traced, err := drive(ss.d.base, env.ref, env.tr, streams, half, 0, nil)
	tracedWall := time.Since(t1)
	wg.Wait()
	if err != nil {
		return err
	}
	if profErr != nil {
		return fmt.Errorf("daemon CPU profile: %w", profErr)
	}
	after, err := get(ss.d.base + "/v1/metrics")
	if err != nil {
		return err
	}
	heap1, err := get(ss.d.debug + "/debug/pprof/heap?debug=1")
	if err != nil {
		return err
	}

	var plainOut outcome
	plainOut.metrics = map[string]float64{}
	serveE2E(&plainOut, plain, plainWall)
	serveE2E(out, traced, tracedWall)
	out.attempted += plainOut.attempted
	out.failed += plainOut.failed
	out.metrics["bench.trace_overhead_frac"] = out.metrics["op_p50_ms"]/plainOut.metrics["op_p50_ms"] - 1
	untracedRates(out.metrics, plainOut.metrics)

	all := append(append([]opRecord(nil), ss.fillOps...), plain...)
	all = append(all, traced...)
	opLayerMetrics(out.metrics, all)
	daemonLayerMetrics(out.metrics, promValues(before), promValues(after))
	if err := daemonRuntime(out.metrics, heap0, heap1, time.Since(ss.d.started), len(traced), tracedWall); err != nil {
		return err
	}
	shares, err := profileShares(env.work, prof)
	if err != nil {
		return err
	}
	addProfile(out.metrics, shares)
	return joinTraces(env, ss, traced)
}

// joinTraces fetches the daemon's lifecycle trace for a sample of traced
// misses and records its stages as service.* spans under the op's root,
// keyed by the job's trace ID.
func joinTraces(env *benchEnv, ss *serveSession, ops []opRecord) error {
	const sample = 40
	joined := 0
	for _, r := range ops {
		if !r.miss || r.failedAs != "" || joined == sample {
			continue
		}
		body, err := get(ss.d.base + "/v1/jobs/" + r.jobID + "/trace")
		if err != nil {
			return err
		}
		var tr struct {
			TraceID   string `json:"trace_id"`
			Lifecycle struct {
				Spans []struct {
					Parent  uint32  `json:"parent"`
					Stage   string  `json:"stage"`
					StartNS float64 `json:"start_ns"`
					EndNS   float64 `json:"end_ns"`
				} `json:"spans"`
			} `json:"lifecycle"`
		}
		if err := json.Unmarshal(body, &tr); err != nil {
			return fmt.Errorf("job trace %s: %w", r.jobID, err)
		}
		if tr.TraceID != r.traceID {
			return fmt.Errorf("job trace %s: trace_id %s, submit said %s", r.jobID, tr.TraceID, r.traceID)
		}
		status, err := get(ss.d.base + "/v1/jobs/" + r.jobID)
		if err != nil {
			return err
		}
		var st struct {
			Transitions []struct {
				At time.Time `json:"at"`
			} `json:"transitions"`
		}
		if err := json.Unmarshal(status, &st); err != nil || len(st.Transitions) == 0 {
			return fmt.Errorf("job %s: no transitions (%v)", r.jobID, err)
		}
		base := st.Transitions[0].At
		for _, s := range tr.Lifecycle.Spans {
			if s.Parent == 0 {
				continue // the job root: the op's own root stands for it
			}
			env.tr.record("service."+s.Stage, r.traceID, r.rootSpan,
				base.Add(time.Duration(s.StartNS)), base.Add(time.Duration(s.EndNS)))
		}
		joined++
	}
	return nil
}

// daemonRuntime derives runtime.* per operation from two debug=1 heap
// profiles, whose trailer carries the daemon's runtime.MemStats.
func daemonRuntime(m map[string]float64, heap0, heap1 []byte, uptime time.Duration, ops int, window time.Duration) error {
	a, err := memStatsTrailer(heap0)
	if err != nil {
		return err
	}
	b, err := memStatsTrailer(heap1)
	if err != nil {
		return err
	}
	n := float64(max(ops, 1))
	m["runtime.alloc_mb"] = (b["TotalAlloc"] - a["TotalAlloc"]) / (1 << 20) / n
	m["runtime.gc_cycles"] = (b["NumGC"] - a["NumGC"]) / n
	// GCCPUFraction is cumulative since start; undo the averaging over
	// the window the two readings bracket.
	t1 := uptime.Seconds()
	t0 := t1 - window.Seconds()
	m["runtime.gc_cpu_frac"] = max((b["GCCPUFraction"]*t1-a["GCCPUFraction"]*t0)/window.Seconds(), 0)
	return nil
}

func memStatsTrailer(heap []byte) (map[string]float64, error) {
	out := map[string]float64{}
	for _, line := range strings.Split(string(heap), "\n") {
		k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
			out[k] = f
		}
	}
	for _, k := range []string{"TotalAlloc", "NumGC", "GCCPUFraction"} {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("daemon heap profile: no %s in its MemStats trailer", k)
		}
	}
	return out, nil
}
