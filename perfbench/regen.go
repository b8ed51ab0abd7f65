package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	apusim "repro"
	"repro/internal/runner"
)

// regenerate rebuilds reference.json from the current code: one serial
// suite pass for statuses and output digests, and a memory-only daemon
// serving every experiment at two seeds for the manifest digests. The two
// seeds must give the same manifest, which is what lets one digest gate
// every seed the workloads draw.
func regenerate(env *benchEnv, path string) error {
	reg := apusim.Experiments()
	suite, err := reg.RunSuite(runner.Options{Parallel: 1})
	if err != nil {
		return err
	}
	ref := &reference{
		Schema: refSchema,
		Note: "Correctness gate for perfbench: expected status, sha256 of the output text (suite workloads) and of the served " +
			"manifest (serve workloads) per experiment. Regenerate only with `bash perfbench/run.sh --regen-refs`.",
		StormStatus: string(runner.StatusDegraded),
		Experiments: map[string]experiment{},
	}
	for _, r := range suite.Results {
		if r.Failed() {
			return fmt.Errorf("experiment %s failed (%s): %v", r.ID, r.Status, r.Err)
		}
		ref.Experiments[r.ID] = experiment{Status: string(r.Status), OutputSHA256: digest([]byte(r.Output))}
	}
	// Storms must all degrade for a handful of seeds, or storm_status is wrong.
	check := reg.Clone()
	before := check.Len()
	apusim.RegisterChaosStorms(check, stormSeed(1), stormCount)
	storms, err := check.RunSuite(runner.Options{Parallel: 1, IDs: check.IDs()[before:], Audit: true})
	if err != nil {
		return err
	}
	for _, r := range storms.Results {
		if string(r.Status) != ref.StormStatus {
			return fmt.Errorf("storm %s ended %s, not %s", r.ID, r.Status, ref.StormStatus)
		}
	}

	d, _, err := startDaemon(filepath.Join(env.bin, "apusimd"), "-workers", "2")
	if err != nil {
		return err
	}
	defer d.kill()
	c := newClient(d.base, ref, nil)
	defer c.close()
	for _, id := range reg.IDs() {
		var digests [2]string
		for i, seed := range []uint64{1, 2} {
			m, err := c.manifestOf(jobSpec{id, seed})
			if err != nil {
				return err
			}
			digests[i] = manifestDigest(m)
		}
		if digests[0] != digests[1] {
			return fmt.Errorf("experiment %s: served manifest depends on the job seed", id)
		}
		e := ref.Experiments[id]
		e.ManifestSHA256 = digests[0]
		ref.Experiments[id] = e
	}
	if err := d.stop(); err != nil {
		return err
	}
	if err := ref.write(path); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s: %d experiments, statuses %v\n", path, len(ref.Experiments), ref.statusCounts())
	return nil
}

// manifestOf submits a spec, waits for it and returns its manifest,
// without any reference check.
func (c *client) manifestOf(s jobSpec) ([]byte, error) {
	ctx := context.Background()
	code, body, err := c.do(ctx, "POST", "/v1/jobs", s.body())
	if err != nil {
		return nil, err
	}
	if code != 200 && code != 202 {
		return nil, fmt.Errorf("submit %s: HTTP %d: %s", s.Experiment, code, body)
	}
	var st jobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	if !terminal(st.State) {
		if st, err = c.watch(ctx, st.ID); err != nil {
			return nil, err
		}
	}
	code, body, err = c.do(ctx, "GET", "/v1/jobs/"+st.ID+"/manifest", nil)
	if err != nil {
		return nil, err
	}
	if code != 200 {
		return nil, fmt.Errorf("manifest of %s (%s): HTTP %d", st.ID, st.State, code)
	}
	return body, nil
}

// spreadSet is one set of runs of a workload, as --spread saves it for a
// later --compare.
type spreadSet struct {
	Workload string               `json:"workload"`
	Seconds  float64              `json:"seconds"`
	Seeds    []uint64             `json:"seeds"`
	Started  time.Time            `json:"started"`
	Values   map[string][]float64 `json:"values"`
}

// spreadReport runs the workload n times through this same binary, one
// seed each, prints each end-to-end metric's median and quartiles against
// its bound, and saves the values to savePath for --compare. It fails if
// any metric's spread (interquartile range over median) exceeds its
// bound: the check a benchmark must pass to be trusted.
func spreadReport(sp *spec, workload string, seed uint64, seconds float64, n int, root, bin, savePath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := spreadSet{Workload: workload, Seconds: seconds, Started: time.Now().UTC(), Values: map[string][]float64{}}
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", "0", "--root", root, "--bin", bin)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		var res struct {
			Metrics map[string]struct{ Value float64 } `json:"metrics"`
		}
		if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
			return fmt.Errorf("seed %d: result line: %w", s, err)
		}
		for k, v := range res.Metrics {
			set.Values[k] = append(set.Values[k], v.Value)
		}
		set.Seeds = append(set.Seeds, s)
	}
	if err := os.MkdirAll(filepath.Dir(savePath), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(savePath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s, %d runs of %gs (seeds %d..%d), saved to %s\n", workload, n, seconds, seed, seed+uint64(n)-1, savePath)
	fmt.Printf("  %-14s %12s %12s %12s %8s %7s %-12s %s\n", "metric", "median", "q1", "q3", "spread", "bound", "verdict", "values")
	bad := 0
	for _, m := range sp.EndToEnd {
		v := set.Values[m.Name]
		med := median(v)
		q1, q3 := quartiles(v)
		spread := ratio(q3-q1, med)
		verdict := "ok"
		switch {
		case spread > m.Bound:
			verdict, bad = "OVER BOUND", bad+1
		case spread > m.Bound/3:
			verdict = "over bound/3"
		}
		fmt.Printf("  %-14s %12.6g %12.6g %12.6g %8.4f %7.3f %-12s %.4g\n", m.Name, med, q1, q3, spread, m.Bound, verdict, v)
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) spread beyond their bound", bad)
	}
	return nil
}

// worseBy is how much worse b is than a, as a share of a, for a metric
// where better is "lower" or "higher"; negative when b is better.
func worseBy(a, b float64, better string) float64 {
	d := ratio(b-a, a)
	if better == "higher" {
		return -d
	}
	return d
}

// compareSets prints, for every end-to-end metric, the medians of two
// saved sets of runs of the same workload and how far they differ
// against the metric's bound. The sets agree when every difference, in
// either direction, is within its bound: two sets of the same code that
// do not agree mean the benchmark cannot tell a change from noise.
func compareSets(sp *spec, pathA, pathB string) error {
	var sets [2]spreadSet
	for i, p := range []string{pathA, pathB} {
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	a, b := sets[0], sets[1]
	if a.Workload != b.Workload {
		return fmt.Errorf("sets are of different workloads: %s and %s", a.Workload, b.Workload)
	}
	fmt.Printf("%s: set A %d runs from %s, set B %d runs from %s\n", a.Workload,
		len(a.Seeds), a.Started.Format(time.RFC3339), len(b.Seeds), b.Started.Format(time.RFC3339))
	fmt.Printf("  %-14s %12s %12s %9s %7s %s\n", "metric", "median A", "median B", "B worse", "bound", "verdict")
	bad := 0
	for _, m := range sp.EndToEnd {
		ma, mb := median(a.Values[m.Name]), median(b.Values[m.Name])
		if len(a.Values[m.Name]) == 0 || len(b.Values[m.Name]) == 0 {
			return fmt.Errorf("metric %s is missing from a set", m.Name)
		}
		w := worseBy(ma, mb, m.Better)
		verdict := "agree"
		if math.Abs(w) > m.Bound {
			verdict, bad = "DISAGREE", bad+1
		}
		fmt.Printf("  %-14s %12.6g %12.6g %+9.4f %7.3f %s\n", m.Name, ma, mb, w, m.Bound, verdict)
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) differ between the sets by more than their bound", bad)
	}
	return nil
}

func lastLine(b []byte) []byte {
	sc := bufio.NewScanner(bytes.NewReader(b))
	var last []byte
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
