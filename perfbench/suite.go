package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	apusim "repro"
	"repro/internal/runner"
)

// passResult is one serial pass over the registry: its wall time, its
// slowest experiment, every experiment's result, and the process's peak
// RSS so far.
type passResult struct {
	wall    time.Duration
	slowest time.Duration
	results []runner.Result
	rss     float64
}

// rssPass is the pass after which suite-full's peak_rss_mb is taken. The
// heap's high-water mark creeps up pass after pass, so reading it after a
// fixed number of passes, rather than at the end, keeps it from following
// how many passes the run's time allowed.
const rssPass = 3

// runPass runs every registered experiment once, serially, with the
// researcher's default options, and checks every result against the
// reference.
func runPass(reg *runner.Registry, ref *reference) (passResult, error) {
	var pr passResult
	start := time.Now()
	suite, err := reg.RunSuite(runner.Options{Parallel: 1})
	if err != nil {
		return pr, err
	}
	pr.wall = time.Since(start)
	pr.results = suite.Results
	if pr.rss, err = peakRSSMB("self"); err != nil {
		return pr, err
	}
	for _, r := range pr.results {
		pr.slowest = max(pr.slowest, r.Wall)
		if err := ref.checkOutput(r.ID, string(r.Status), r.Output); err != nil {
			return pr, err
		}
	}
	return pr, nil
}

// setupRuns is how many times a suite run execs `repro -list` before
// reporting the median; each exec takes a few milliseconds.
const setupRuns = 31

// suiteSetup times the registry build as a researcher pays it: the CPU
// time (user + system) of `repro -list`, median of setupRuns. CPU time rather than wall time,
// because on a shared host the wall time of a 2 ms exec mostly measures
// when the scheduler got round to it: a one-core CPU hog moved the wall
// median by 30-80% and the CPU median by under 10%.
func suiteSetup(env *benchEnv) (float64, error) {
	var samples []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(filepath.Join(env.bin, "repro"), "-list")
		var out bytes.Buffer
		cmd.Stdout = &out
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("repro -list: %w", err)
		}
		if !bytes.Contains(out.Bytes(), []byte("fig14")) {
			return 0, fmt.Errorf("repro -list: registry does not list fig14")
		}
		st := cmd.ProcessState
		samples = append(samples, (st.UserTime() + st.SystemTime()).Seconds())
	}
	return median(samples), nil
}

// runSuiteWorkload measures suite-full: serial passes over the whole
// registry until the run's time is used.
func runSuiteWorkload(env *benchEnv) (*outcome, error) {
	setup, err := suiteSetup(env)
	if err != nil {
		return nil, err
	}
	reg := apusim.Experiments()
	out := &outcome{metrics: map[string]float64{"setup_s": setup}}

	if err := resetPeakRSS("self"); err != nil {
		return nil, err
	}
	if !env.trace {
		passes, attempted, err := timedPasses(reg, env, env.seconds, nil)
		if err != nil {
			return nil, err
		}
		out.attempted = attempted
		suiteE2E(out, passes)
		out.metrics["peak_rss_mb"] = passes[min(rssPass, len(passes))-1].rss
		return out, nil
	}

	// Traced: half the time untraced, half with spans and a CPU profile,
	// then the layer sweep.
	half := env.seconds / 2
	plain, n1, err := timedPasses(reg, env, half, nil)
	if err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	traced, n2, err := timedPasses(reg, env, half, env.tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	out.attempted = n1 + n2
	plainOut := &outcome{metrics: map[string]float64{}}
	suiteE2E(plainOut, plain)
	untracedRates(out.metrics, plainOut.metrics)
	out.metrics["bench.trace_overhead_frac"] = median(passWalls(traced))/plainOut.metrics["op_p50_ms"] - 1
	rt1.perPass(rt0, len(traced), out.metrics)
	shares, err := profileShares(env.work, prof.Bytes())
	if err != nil {
		return nil, err
	}
	addProfile(out.metrics, shares)
	return out, nil
}

// timedPasses runs passes while another one fits in budget (at least
// one), and returns them with the number of experiment runs attempted.
func timedPasses(reg *runner.Registry, env *benchEnv, budget time.Duration, tr *tracer) ([]passResult, int, error) {
	var passes []passResult
	attempted := 0
	start := time.Now()
	for len(passes) == 0 || time.Since(start)+passes[len(passes)-1].wall <= budget {
		pr, err := runPass(reg, env.ref)
		attempted += len(pr.results)
		if err != nil {
			return nil, attempted, err
		}
		passes = append(passes, pr)
		if tr != nil {
			end := time.Now()
			root := tr.record("bench.pass", "", 0, end.Add(-pr.wall), end)
			// Results carry durations, not start times: lay them end to end
			// from the pass start, which is how a serial pass ran them.
			at := end.Add(-pr.wall)
			for _, r := range pr.results {
				tr.record("runner.exp."+r.ID, "", root, at, at.Add(r.Wall))
				at = at.Add(r.Wall)
			}
		}
	}
	return passes, attempted, nil
}

func passWalls(passes []passResult) []float64 {
	var w []float64
	for _, p := range passes {
		w = append(w, p.wall.Seconds()*1e3)
	}
	return w
}

// suiteE2E fills the end-to-end metrics of a suite run. An operation is
// one pass; the tail is the pass's slowest experiment, which bounds the
// suite's wall time at any -parallel.
func suiteE2E(out *outcome, passes []passResult) {
	var slowest []float64
	var total time.Duration
	for _, p := range passes {
		slowest = append(slowest, p.slowest.Seconds()*1e3)
		total += p.wall
	}
	walls := passWalls(passes)
	out.metrics["op_p50_ms"] = median(walls)
	out.metrics["op_tail_ms"] = median(slowest)
	out.metrics["ops_per_s"] = float64(len(passes)) / total.Seconds()
	out.metrics["ops_ok_frac"] = 1
	out.notes = append(out.notes, fmt.Sprintf("%d passes; op_p50_ms is the median pass; op_tail_ms the median slowest experiment", len(passes)))
}

// runtimeSample is a reading of the Go runtime's allocation and GC
// counters.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint32
	gcCPU      float64
	totalCPU   float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
	}
}

// perPass records the runtime.* layer metrics for the interval since
// before, averaged over passes.
func (r runtimeSample) perPass(before runtimeSample, passes int, m map[string]float64) {
	n := float64(max(passes, 1))
	m["runtime.alloc_mb"] = float64(r.allocBytes-before.allocBytes) / (1 << 20) / n
	m["runtime.gc_cycles"] = float64(r.gcCycles-before.gcCycles) / n
	if cpu := r.totalCPU - before.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_frac"] = (r.gcCPU - before.gcCPU) / cpu
	} else {
		m["runtime.gc_cpu_frac"] = 0
	}
}

// untracedRates copies the throughput, tail and (serve) mean latency of
// a traced run's untraced half into the per-layer metrics. They are
// reported, not gated: on a shared host they follow the neighbours' load
// far more than the median does (see README.md).
func untracedRates(m, plain map[string]float64) {
	m["untraced.ops_per_s"] = plain["ops_per_s"]
	m["untraced.op_tail_ms"] = plain["op_tail_ms"]
	if v, ok := plain["op_mean_ms"]; ok {
		m["untraced.op_mean_ms"] = v
	}
}

func addProfile(m map[string]float64, shares map[string]float64) {
	for _, l := range profileLayers {
		m["profile."+l+".self_frac"] = shares[l]
	}
	m["profile.functional_mem_frac"] = shares["mem.space"] + shares["progmodel"]
	m["profile.timing_model_frac"] = shares["gpu"] + shares["cache"] + shares["fabric"] +
		shares["core"] + shares["chiplet"] + shares["mem.hbm"]
}
