package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func opSequence(seed uint64, pool []jobSpec, misses bool, n int) []jobSpec {
	st := newOpStream(seed, streamClient, pool, misses)
	out := make([]jobSpec, n)
	for i := range out {
		out[i], _ = st.next()
	}
	return out
}

func TestSeedDeterminesInputs(t *testing.T) {
	ids := []string{"table1", "fig7", "fig17", "fig18", "tsv", "policy"}
	for _, tc := range []struct {
		name string
		gen  func(seed uint64) any
	}{
		{"hot set", func(s uint64) any { return hotSet(s, ids) }},
		{"primed keys", func(s uint64) any { return primedKeys(s) }},
		{"primed jobs", func(s uint64) any { return primedJobList(s, primedKeys(s)) }},
		{"hit ops", func(s uint64) any { return opSequence(s, hotSet(s, ids), false, 500) }},
		{"durable ops", func(s uint64) any { return opSequence(s, primedKeys(s), true, 500) }},
		{"storm seed", func(s uint64) any { return stormSeed(s) }},
	} {
		if a, b := tc.gen(7), tc.gen(7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different inputs", tc.name)
		}
		if a, b := tc.gen(7), tc.gen(8); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave the same input", tc.name)
		}
	}
}

func TestDurableMixHasFixedMissShare(t *testing.T) {
	keys := primedKeys(3)
	primed := map[jobSpec]bool{}
	for _, k := range keys {
		primed[k] = true
	}
	st := newOpStream(3, streamClient, keys, true)
	misses := 0
	const n = 800
	for i := 0; i < n; i++ {
		s, miss := st.next()
		if miss {
			misses++
			if primed[s] || s.Seed < primedSeedMax {
				t.Fatalf("miss %v could hit the primed store", s)
			}
		} else if !primed[s] {
			t.Fatalf("hit op %v is not a primed key", s)
		}
	}
	if misses != n/missEvery {
		t.Errorf("%d misses in %d ops, want %d", misses, n, n/missEvery)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // unsorted input
		}
		return s
	}
	if v, ok := percentile(seq(1000), 99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v (ok=%v), want 990 with 10 beyond", v, ok)
	}
	if _, ok := percentile(seq(999), 99); ok {
		t.Error("p99 of 999 samples has only 9 beyond it, but was accepted")
	}
	if p, v, ok := tailPercentile(seq(999)); !ok || p != 95 || v != 950 {
		t.Errorf("tail of 999 samples = p%v %v (ok=%v), want p95 950", p, v, ok)
	}
	if _, _, ok := tailPercentile(seq(19)); ok {
		t.Error("19 samples have no percentile with 10 beyond, but one was accepted")
	}
	if p, _, ok := tailPercentile(seq(20)); !ok || p != 50 {
		t.Errorf("20 samples: tail p%v (ok=%v), want p50", p, ok)
	}
	if m := median(seq(4)); m != 2.5 {
		t.Errorf("median of 1..4 = %v", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(seq(10)); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of {1,2,4} = %v, %v; want 1, 4", q1, q3)
	}
}

func TestVmHWM(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "status")
	status := "Name:\tapusimd\nVmPeak:\t  812345 kB\nVmHWM:\t   34560 kB\nVmRSS:\t   30000 kB\n"
	if err := os.WriteFile(path, []byte(status), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := vmHWM(path); err != nil || got != 34560<<10 {
		t.Errorf("vmHWM = %d, %v; want %d", got, err, 34560<<10)
	}
	if err := os.WriteFile(path, []byte("VmHWM:\t12 MB\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := vmHWM(path); err == nil {
		t.Error("a VmHWM not in kB was accepted")
	}
	if err := os.WriteFile(path, []byte("Name:\tx\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := vmHWM(path); err == nil {
		t.Error("a status file without VmHWM was accepted")
	}
	if mb, err := peakRSSMB("self"); err != nil || mb <= 0 {
		t.Errorf("own peak RSS = %v MiB, %v", mb, err)
	}
}

func TestDigestGateTripsOnOneByte(t *testing.T) {
	manifest := []byte(`{"schema":"apusim-run-manifest/v1","experiments":[{"id":"fig17","telemetry":{"wall_ns": 12345}}]}`)
	ref := &reference{Experiments: map[string]experiment{
		"fig17": {Status: "ok", OutputSHA256: digest([]byte("table\n")), ManifestSHA256: manifestDigest(manifest)},
	}}
	if err := ref.checkManifest("fig17", manifest); err != nil {
		t.Fatalf("the reference manifest failed its own gate: %v", err)
	}
	// Wall-clock profile counters vary run to run and are not gated.
	rerun := bytes.Replace(manifest, []byte("12345"), []byte("999"), 1)
	if err := ref.checkManifest("fig17", rerun); err != nil {
		t.Errorf("a different wall_ns tripped the gate: %v", err)
	}
	digits := wallNS.FindIndex(manifest)
	for i := range manifest {
		if i >= digits[0]+len(`"wall_ns": `) && i < digits[1] {
			continue // the wall_ns value itself
		}
		bad := append([]byte(nil), manifest...)
		bad[i] ^= 0x01
		err := ref.checkManifest("fig17", bad)
		if err == nil {
			t.Fatalf("flipping byte %d (%q) passed the manifest gate", i, manifest[i])
		}
		if !strings.Contains(err.Error(), "fig17") {
			t.Fatalf("gate error does not name the experiment: %v", err)
		}
	}
	if err := ref.checkOutput("fig17", "ok", "table\n"); err != nil {
		t.Errorf("reference output failed: %v", err)
	}
	if err := ref.checkOutput("fig17", "ok", "tablf\n"); err == nil || !strings.Contains(err.Error(), "fig17") {
		t.Errorf("a one-byte output change: %v", err)
	}
	if err := ref.checkOutput("fig17", "degraded", "table\n"); err == nil {
		t.Error("an unexpected status passed the gate")
	}
}

// fakeDaemon answers submissions with the given status code and, for
// admitted jobs, a watch stream ending in state.
func fakeDaemon(code int, state string) *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(code)
		if code == http.StatusAccepted {
			fmt.Fprint(w, `{"id":"j-000001","state":"queued","trace_id":"00000000000000aa"}`)
		} else {
			fmt.Fprint(w, `{"error":"no"}`)
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "{\"heartbeat\":true,\"id\":\"j-000001\",\"state\":\"running\"}\n{\"id\":\"j-000001\",\"state\":%q}\n", state)
	})
	return httptest.NewServer(mux)
}

func TestFailedOpsAreCounted(t *testing.T) {
	ref := &reference{Experiments: map[string]experiment{"fig17": {Status: "ok"}}}
	var ops []opRecord
	for _, tc := range []struct {
		code  int
		state string
		want  string
	}{
		{http.StatusTooManyRequests, "", "http 429"},
		{http.StatusServiceUnavailable, "", "http 503"},
		{http.StatusAccepted, "timeout", "job timeout"},
		{http.StatusAccepted, "failed", "job failed"},
	} {
		srv := fakeDaemon(tc.code, tc.state)
		c := newClient(srv.URL, ref, nil)
		r, err := c.op(context.Background(), jobSpec{"fig17", 1})
		c.close()
		srv.Close()
		if err != nil {
			t.Fatalf("HTTP %d/%s: op error %v, want a counted failure", tc.code, tc.state, err)
		}
		if r.failedAs != tc.want {
			t.Errorf("HTTP %d/%s: failed as %q, want %q", tc.code, tc.state, r.failedAs, tc.want)
		}
		ops = append(ops, r)
	}
	ops = append(ops, opRecord{total: time.Millisecond})
	out := &outcome{metrics: map[string]float64{}}
	serveE2E(out, ops, time.Second)
	if out.attempted != 5 || out.failed != 4 {
		t.Errorf("attempted %d failed %d, want 5 and 4", out.attempted, out.failed)
	}
	if got := out.metrics["ops_ok_frac"]; got != 0.2 {
		t.Errorf("ops_ok_frac = %v, want 0.2", got)
	}
}

func TestWrongStatusIsACorrectnessError(t *testing.T) {
	ref := &reference{Experiments: map[string]experiment{"fig17": {Status: "ok"}}}
	srv := fakeDaemon(http.StatusAccepted, "degraded")
	defer srv.Close()
	c := newClient(srv.URL, ref, nil)
	defer c.close()
	if _, err := c.op(context.Background(), jobSpec{"fig17", 1}); err == nil || !strings.Contains(err.Error(), "fig17") {
		t.Errorf("a job ending degraded instead of ok: %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{}
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }
	root := tr.record("bench.op", "t1", 0, at(0), at(100))
	tr.record("http.submit", "t1", root, at(0), at(30))
	tr.record("service.queued", "t1", root, at(20), at(50)) // overlaps submit
	tr.record("http.manifest", "t1", root, at(90), at(100))
	self := tr.selfTimes()
	want := map[string]float64{"bench": 40e6, "http": 40e6, "service": 30e6}
	for k, v := range want {
		if math.Abs(self[k]-v) > 1 {
			t.Errorf("self[%s] = %v ns, want %v", k, self[k], v)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	series := func(counts ...float64) map[string]float64 {
		m := map[string]float64{}
		for i, le := range []string{"0.001", "0.002", "0.004", "+Inf"} {
			m[`x_bucket{tenant="default",le="`+le+`"}`] = counts[i]
		}
		return m
	}
	before := series(1, 1, 1, 1)
	after := series(1, 11, 21, 21) // 20 new: 10 in (1,2] ms, 10 in (2,4] ms
	if got := histQuantile(before, after, "x", `tenant="default"`, 0.5); math.Abs(got-0.002) > 1e-12 {
		t.Errorf("p50 = %v, want 0.002", got)
	}
	if got := histQuantile(before, after, "x", `tenant="default"`, 0.75); math.Abs(got-0.003) > 1e-12 {
		t.Errorf("p75 = %v, want 0.003", got)
	}
}

func TestOpMeanCarriesTheMisses(t *testing.T) {
	// Each 1 s window: 7 hits of 1 ms and one miss of 9 ms. The miss sits
	// above every window's median, so only the mean sees it.
	var ops []opRecord
	start := time.Unix(0, 0)
	for w := 0; w < 4; w++ {
		for i := 0; i < 8; i++ {
			lat := time.Millisecond
			if i == 7 {
				lat = 9 * time.Millisecond
			}
			ops = append(ops, opRecord{start: start.Add(time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond), total: lat})
		}
	}
	out := &outcome{metrics: map[string]float64{}}
	serveE2E(out, ops, 4*time.Second)
	if got := out.metrics["op_p50_ms"]; got != 1 {
		t.Errorf("op_p50_ms = %v, want 1", got)
	}
	if got := out.metrics["op_mean_ms"]; got != 2 {
		t.Errorf("op_mean_ms = %v, want 2 (7 x 1 ms + 9 ms over 8 ops)", got)
	}
}

func TestCompareSets(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{
		{Name: "op_mean_ms", Better: "lower", Bound: 0.25},
		{Name: "ops_ok_frac", Better: "higher", Bound: 0.01},
	}}
	if w := worseBy(2, 2.4, "lower"); math.Abs(w-0.2) > 1e-12 {
		t.Errorf("2 -> 2.4 lower-is-better: worse by %v, want 0.2", w)
	}
	if w := worseBy(1, 0.98, "higher"); math.Abs(w-0.02) > 1e-12 {
		t.Errorf("1 -> 0.98 higher-is-better: worse by %v, want 0.02", w)
	}
	dir := t.TempDir()
	save := func(name string, mean, ok float64) string {
		set := spreadSet{Workload: "serve-durable", Seeds: []uint64{1, 2, 3}, Values: map[string][]float64{
			"op_mean_ms": {mean, mean * 1.01, mean * 0.99}, "ops_ok_frac": {ok, ok, ok},
		}}
		data, err := json.Marshal(set)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := save("a.json", 2, 1)
	if err := compareSets(sp, a, save("b.json", 2.3, 1)); err != nil {
		t.Errorf("15%% apart under a 0.25 bound: %v", err)
	}
	if err := compareSets(sp, a, save("c.json", 1.4, 1)); err == nil {
		t.Error("sets 30% apart, B better, were accepted as agreeing")
	}
	if err := compareSets(sp, a, save("d.json", 2, 0.95)); err == nil || !strings.Contains(err.Error(), "1 metric") {
		t.Errorf("ops_ok_frac 5%% worse under a 0.01 bound: %v", err)
	}
}

func busy(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestProfileShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	busy(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := profileShares(t.TempDir(), buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for l, v := range shares {
		if v < 0 {
			t.Errorf("share %s = %v", l, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	traces := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.mapaccess2_fast64
             repro/internal/mem.(*Space).page (inline)
             repro/internal/mem.(*Space).WriteF64
-----------+-------------------------------------------------------
     task:  fill
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
     1.06s   repro/internal/gpu.(*XCD).earliestCUSlot
             repro/internal/runner.(*Registry).RunSuite
-----------+-------------------------------------------------------
`
	got, err := tracesShares([]byte(traces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"mem.space": 0.03 / 1.1, "runtime": 0.01 / 1.1, "gpu": 1.06 / 1.1}
	for l, v := range want {
		if math.Abs(got[l]-v) > 1e-12 {
			t.Errorf("share %s = %v, want %v", l, got[l], v)
		}
	}
	if len(got) != len(want) {
		t.Errorf("shares %v, want only %v", got, want)
	}
	for _, tc := range []struct{ fn, layer string }{
		{"repro/internal/mem.(*Space).page", "mem.space"},
		{"repro/internal/mem.(*HBM).Access", "mem.hbm"},
		{"repro/internal/gpu.(*XCD).earliestCUSlot", "gpu"},
		{"repro/internal/thermal.Solve", "model_other"},
		{"repro.ExperimentFig14", "apusim"},
		{"runtime.mapaccess2_fast64", ""},
		{"main.busy", ""},
	} {
		if got := frameLayer(tc.fn); got != tc.layer {
			t.Errorf("frameLayer(%s) = %q, want %q", tc.fn, got, tc.layer)
		}
	}
}
