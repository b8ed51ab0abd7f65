package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 over 200 samples rests on two values and
// says nothing about the tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples, and whether at least minBeyond samples lie beyond it. samples
// need not be sorted; it is not modified.
func percentile(samples []float64, p float64) (value float64, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n-rank >= minBeyond
}

// tailLadder is the order in which tailPercentile tries percentiles.
var tailLadder = []float64{99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile on tailLadder that has at
// least minBeyond samples beyond it. ok is false when even the median
// lacks them (fewer than 20 samples).
func tailPercentile(samples []float64) (p, value float64, ok bool) {
	for _, p := range tailLadder {
		if v, ok := percentile(samples, p); ok {
			return p, v, true
		}
	}
	return 0, 0, false
}

// median returns the middle value of samples (the mean of the middle two
// for an even count), or 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of samples, or 0 for none.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// quartiles returns the first and third quartiles of samples with the
// same method as Python's statistics.quantiles(values, n=4) (the
// "exclusive" method), which is how the benchmark's spread is judged.
func quartiles(samples []float64) (q1, q3 float64) {
	n := len(samples)
	if n < 2 {
		m := median(samples)
		return m, m
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	at := func(k int) float64 {
		m := n + 1
		j := min(max(k*m/4, 1), n-1)
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// vmHWM reads a process's peak resident set size (VmHWM) from a
// /proc/<pid>/status file, in bytes.
func vmHWM(statusPath string) (int64, error) {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("%s: malformed VmHWM line %q", statusPath, line)
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: VmHWM: %w", statusPath, err)
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no VmHWM line", statusPath)
}

// resetPeakRSS restarts a process's VmHWM from its current RSS (pid
// "self" for this process), so the peak read later covers only the
// measured window, not set-up.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// peakRSSMB is vmHWM for a pid ("self" for this process), in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := vmHWM("/proc/" + pid + "/status")
	return float64(b) / (1 << 20), err
}
