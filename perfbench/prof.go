package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// A CPU profile answers where a workload's time goes by layer, without
// touching program code: each sample is charged to the first frame, from
// the leaf up, that belongs to one of the repository's packages. Runtime
// work a layer asks for (allocation, map lookups) is therefore charged to
// that layer; what is left under "runtime" is GC and scheduling that no
// layer frame sits above.

// profileLayers are the layers a profile is split into, in report order.
var profileLayers = []string{
	"apusim", "runner", "mem.space", "mem.hbm", "progmodel", "gpu", "cache", "fabric",
	"core", "chiplet", "sim", "model_other", "service", "durable", "net", "runtime", "other",
}

// frameLayer maps a function name from a profile onto a layer, or "" when
// the frame should be skipped in favour of its caller.
func frameLayer(fn string) string {
	pkg := fn
	if slash := strings.LastIndexByte(fn, '/'); slash >= 0 {
		if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
			pkg = fn[:slash+dot]
		}
	} else if dot := strings.IndexByte(fn, '.'); dot >= 0 {
		pkg = fn[:dot]
	}
	switch {
	case pkg == "repro":
		return "apusim"
	case pkg == "repro/internal/mem":
		if strings.Contains(fn, "(*Space)") || strings.HasPrefix(fn, "repro/internal/mem.Copy") || strings.HasPrefix(fn, "repro/internal/mem.NewSpace") {
			return "mem.space"
		}
		return "mem.hbm"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		for _, l := range profileLayers {
			if l == name {
				return l
			}
		}
		return "model_other"
	case strings.HasPrefix(pkg, "repro/"):
		return "" // the benchmark's own frames: charge the caller
	}
	return ""
}

// fallbackLayer charges a stack with no repository frame: to the network
// stack when any frame is in it (the HTTP server's own work), else to the
// runtime when the leaf is (GC, scheduling), else to "other".
func fallbackLayer(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "net/") || strings.HasPrefix(f, "net.") || strings.HasPrefix(f, "syscall.") ||
			strings.HasPrefix(f, "internal/poll.") || strings.HasPrefix(f, "crypto/") {
			return "net"
		}
	}
	if len(frames) > 0 && (strings.HasPrefix(frames[0], "runtime.") || strings.HasPrefix(frames[0], "internal/runtime/")) {
		return "runtime"
	}
	return "other"
}

// profileShares writes a pprof CPU profile to dir, has `go tool pprof
// -traces` print its sample stacks, and returns each layer's share of
// sampled CPU time.
func profileShares(dir string, prof []byte) (map[string]float64, error) {
	path := filepath.Join(dir, "cpu.pprof")
	if err := os.WriteFile(path, prof, 0o644); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	traces, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	return tracesShares(traces)
}

// tracesShares splits the output of `pprof -traces` by layer. Each stack
// follows a separator line: label lines ("key:  value") if the sample has
// any, then the sample value beside the leaf frame, then its callers, one
// frame a line.
func tracesShares(traces []byte) (map[string]float64, error) {
	byLayer := map[string]float64{}
	var total float64
	stacks := strings.Split(string(traces), "-----------+")
	for _, st := range stacks[1:] {
		var value time.Duration
		var frames []string
		for _, l := range strings.Split(st, "\n")[1:] { // [0] ends the separator
			f := strings.Fields(l)
			switch {
			case len(f) == 0 || (frames == nil && strings.HasSuffix(f[0], ":")):
				continue
			case frames == nil:
				d, err := time.ParseDuration(f[0])
				if err != nil || len(f) < 2 {
					return nil, fmt.Errorf("profile: malformed stack line %q", l)
				}
				value, frames = d, []string{f[1]}
			default:
				frames = append(frames, f[0]) // drops an "(inline)" mark
			}
		}
		if frames == nil {
			continue
		}
		layer := ""
		for _, f := range frames {
			if layer = frameLayer(f); layer != "" {
				break
			}
		}
		if layer == "" {
			layer = fallbackLayer(frames)
		}
		byLayer[layer] += value.Seconds()
		total += value.Seconds()
	}
	if total == 0 {
		return nil, errors.New("profile: no samples")
	}
	for k := range byLayer {
		byLayer[k] /= total
	}
	return byLayer, nil
}
