// Command perfbench is the repository's benchmark: it runs one named
// workload against the real code for a fixed time, checks every output
// against stored digests, and prints every metric BENCHMARK.json names,
// by name and unit, as the last line of its output.
//
// Run it from the repository root through run.sh, which builds it and
// the daemon first:
//
//	bash perfbench/run.sh --workload suite-full --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload serve-durable --seed 1 --seconds 20 --trace 1
//	bash perfbench/run.sh --spread 10 --workload serve-hits --seed 1
//	bash perfbench/run.sh --compare A.json,B.json
//	bash perfbench/run.sh --regen-refs
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate
// traced run and prints the per-layer ones. See README.md in this
// directory for the workloads and what each metric predicts.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// benchEnv is one run's configuration.
type benchEnv struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	bin      string // built binaries
	work     string // scratch space for data dirs, inside the checkout
	ref      *reference
	tr       *tracer // nil unless tracing
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

// spec is the part of BENCHMARK.json the benchmark reads: the run length
// and the metrics it must print.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// workloadRunners maps each workload to the function that measures it.
var workloadRunners = map[string]func(*benchEnv) (*outcome, error){
	"suite-full":    runSuiteWorkload,
	"serve-hits":    runServeWorkload,
	"serve-durable": runServeWorkload,
}

// daemonOnly are per-layer metrics only a workload with a daemon
// exercises; the others report them as 0 ("not exercised") rather than
// starting a daemon just for them.
var daemonOnly = map[string]bool{
	"http.submit_p50_ms": true, "http.manifest_p50_ms": true, "http.watch_p50_ms": true,
	"serve.miss_p50_ms": true, "serve.miss_tail_ms": true, "untraced.op_mean_ms": true,
	"service.cache_hit_ratio": true, "service.store_fallthrough_ratio": true,
	"service.queue_wait_p50_ms": true, "service.run_p50_ms": true,
	"durable.journal.syncs_per_append": true, "durable.journal.bytes": true,
}

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 0, "measurement time (0 = BENCHMARK.json run_seconds)")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	root := flag.String("root", ".", "repository checkout root")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the built repro and apusimd binaries")
	spread := flag.Int("spread", 0, "run the workload this many times (seeds seed, seed+1, ...), report each end-to-end metric's spread against its bound, and save the set under .bench_build/ for --compare")
	compare := flag.String("compare", "", "A.json,B.json: compare the medians of two sets saved by --spread against the bounds")
	regen := flag.Bool("regen-refs", false, "regenerate perfbench/reference.json from the current code instead of benchmarking")
	flag.Parse()

	// Stop any daemon still running if we are interrupted.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		killAll()
		os.Exit(1)
	}()

	var err error
	if *compare != "" {
		err = runCompare(*root, *compare)
	} else {
		err = run(*workload, *seed, *seconds, *trace == 1, *root, *bin, *spread, *regen)
	}
	killAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func runCompare(root, paths string) error {
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	a, b, ok := strings.Cut(paths, ",")
	if !ok {
		return fmt.Errorf("--compare wants two files, A.json,B.json")
	}
	return compareSets(sp, a, b)
}

func run(workload string, seed uint64, seconds float64, trace bool, root, bin string, spreadRuns int, regen bool) error {
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	env := &benchEnv{
		workload: workload, seed: seed, trace: trace,
		seconds: time.Duration(seconds * float64(time.Second)),
		bin:     bin,
		work:    filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid())),
	}
	refPath := filepath.Join(root, "perfbench", "reference.json")
	if regen {
		return regenerate(env, refPath)
	}
	if spreadRuns > 0 {
		save := filepath.Join(root, ".bench_build", fmt.Sprintf("spread-%s-%s.json", workload, time.Now().UTC().Format("20060102T150405")))
		return spreadReport(sp, workload, seed, seconds, spreadRuns, root, bin, save)
	}
	drv, ok := workloadRunners[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if env.ref, err = loadReference(refPath); err != nil {
		return err
	}
	if err := os.MkdirAll(env.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(env.work)
	if trace {
		env.tr = &tracer{}
	}

	out, err := drv(env)
	if err != nil {
		return err
	}
	want := sp.EndToEnd
	if trace {
		want = sp.PerLayer
		self := env.tr.selfTimes()
		var total float64
		for _, v := range self {
			total += v
		}
		for _, l := range traceLayers {
			out.metrics["trace."+l+".self_frac"] = ratio(self[l], total)
		}
		if err := sweep(env, out.metrics); err != nil {
			return err
		}
		path := filepath.Join(root, ".bench_build", fmt.Sprintf("spans-%s-%d.json", workload, seed))
		if err := env.tr.write(path); err != nil {
			return err
		}
		out.notes = append(out.notes, "spans written to "+path)
	}
	return report(os.Stdout, os.Stderr, out, want)
}

// traceLayers are the layers the benchmark's own spans cover during a
// workload (the sweep's spans are written out but not in these shares).
var traceLayers = []string{"bench", "runner", "http", "service"}

// report prints the human-readable table to errw and the result line to
// w. Every wanted metric must have been measured.
func report(w, errw *os.File, out *outcome, want []metricSpec) error {
	var b bytes.Buffer
	b.WriteString(`{"correct": true, "attempted": `)
	fmt.Fprintf(&b, `%d, "failed": %d, "metrics": {`, out.attempted, out.failed)
	var missing []string
	for i, m := range want {
		v, ok := out.metrics[m.Name]
		if !ok && daemonOnly[m.Name] {
			v, ok = 0, true
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.Name)
			continue
		}
		if i > 0 {
			b.WriteString(", ")
		}
		name, _ := json.Marshal(m.Name)
		unit, _ := json.Marshal(m.Unit)
		fmt.Fprintf(&b, `%s: {"value": %s, "unit": %s}`, name, strconv.FormatFloat(v, 'g', -1, 64), unit)
		fmt.Fprintf(errw, "  %-36s %14.6g %s\n", m.Name, v, m.Unit)
	}
	b.WriteString("}}\n")
	for _, n := range out.notes {
		fmt.Fprintf(errw, "  note: %s\n", n)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("metrics not measured or not finite: %s", strings.Join(missing, ", "))
	}
	if out.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	_, err := w.Write(b.Bytes())
	return err
}
