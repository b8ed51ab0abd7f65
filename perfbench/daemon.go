package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one apusimd process started by the benchmark. Every daemon is
// stopped, and waited for, before the benchmark exits.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port of the API
	debug   string // http://host:port of pprof, when -debug-addr was given
	started time.Time

	exited chan struct{} // closed once Wait has returned
	mu     sync.Mutex
	tail   []string // last stderr lines, for error reports
}

// live tracks daemons not yet stopped, so an aborted run still stops them.
var live struct {
	sync.Mutex
	set map[*daemon]bool
}

// startDaemon execs apusimd with args (plus a loopback listener) and
// returns once /v1/healthz answers, with the time that took.
func startDaemon(bin string, args ...string) (*daemon, time.Duration, error) {
	args = append([]string{"-listen", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	d.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting apusimd: %w", err)
	}
	live.Lock()
	if live.set == nil {
		live.set = map[*daemon]bool{}
	}
	live.set[d] = true
	live.Unlock()

	addrs := make(chan string, 2) // one listening line, at most one pprof line
	go d.readStderr(stderr, addrs)
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()

	deadline := time.After(90 * time.Second)
	for d.base == "" {
		select {
		case a := <-addrs:
			if strings.HasPrefix(a, "pprof ") {
				d.debug = "http://" + strings.TrimPrefix(a, "pprof ")
			} else {
				d.base = "http://" + a
			}
		case <-d.exited:
			return nil, 0, fmt.Errorf("apusimd exited during start-up: %s", d.lastLines())
		case <-deadline:
			d.kill()
			return nil, 0, errors.New("apusimd did not start listening within 90s")
		}
	}
	if containsFlag(args, "-debug-addr") && d.debug == "" {
		// The pprof line is printed before the listening line.
		select {
		case a := <-addrs:
			d.debug = "http://" + strings.TrimPrefix(a, "pprof ")
		default:
			d.kill()
			return nil, 0, errors.New("apusimd did not report its pprof address")
		}
	}
	for {
		resp, err := http.Get(d.base + "/v1/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(d.started), nil
			}
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("apusimd exited before healthz: %s", d.lastLines())
		case <-time.After(time.Millisecond):
		}
	}
}

func containsFlag(args []string, flag string) bool {
	for _, a := range args {
		if a == flag {
			return true
		}
	}
	return false
}

// readStderr forwards the listener addresses and keeps the last lines.
func (d *daemon) readStderr(r io.Reader, addrs chan<- string) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "apusimd: listening on "):
			addrs <- strings.TrimPrefix(line, "apusimd: listening on ")
		case strings.HasPrefix(line, "apusimd: pprof on "):
			addrs <- "pprof " + strings.TrimPrefix(line, "apusimd: pprof on ")
		}
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
	}
}

func (d *daemon) lastLines() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop drains the daemon with SIGTERM and waits for it; a daemon that
// has not exited after 30s is killed.
func (d *daemon) stop() error {
	defer d.forget()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		if st := d.cmd.ProcessState; st != nil && !st.Success() {
			return fmt.Errorf("apusimd exited uncleanly (%v): %s", st, d.lastLines())
		}
		return nil
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("apusimd did not drain within 30s")
	}
}

// kill stops the daemon with SIGKILL and waits for it.
func (d *daemon) kill() {
	defer d.forget()
	_ = d.cmd.Process.Kill()
	<-d.exited
}

func (d *daemon) forget() {
	live.Lock()
	delete(live.set, d)
	live.Unlock()
}

// killAll stops every daemon still running; used on abort paths.
func killAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// get fetches a URL and returns its body, failing on a non-200 status.
func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// promValues parses Prometheus text exposition into series → value.
// Series keep their label set verbatim, e.g.
// `apusimd_jobs_rejected_total{reason="queue_full"}`.
func promValues(text []byte) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
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
		out[line[:i]] = v
	}
	return out
}

// histQuantile estimates quantile q of a Prometheus histogram from the
// difference of two scrapes, interpolating linearly inside the bucket.
func histQuantile(before, after map[string]float64, name, labels string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + "_bucket{"
	for series, v := range after {
		if !strings.HasPrefix(series, prefix) || !strings.Contains(series, labels) {
			continue
		}
		i := strings.Index(series, `le="`)
		if i < 0 {
			continue
		}
		leStr := series[i+4:]
		leStr = leStr[:strings.IndexByte(leStr, '"')]
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			continue // +Inf parses; anything else is not a bound
		}
		bs = append(bs, bucket{le, v - before[series]})
	}
	if len(bs) == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := bs[len(bs)-1].n
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevLe, prevN := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if b.le > 1e300 { // +Inf bucket: report its lower edge
				return prevLe
			}
			if b.n == prevN {
				return b.le
			}
			return prevLe + (b.le-prevLe)*(rank-prevN)/(b.n-prevN)
		}
		prevLe, prevN = b.le, b.n
	}
	return prevLe
}
