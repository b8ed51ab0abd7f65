package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Name is "<layer>.<what>"; a serve operation's spans carry the
// job's trace_id so they join the daemon's own lifecycle trace.
type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs pay nothing for it.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// record stores a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) record(name, trace string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: id, Parent: parent,
		Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// setParent attaches a span recorded before its parent existed (a serve
// operation's root closes last) and stamps the trace ID it learned from
// the submit response.
func (t *tracer) setParent(id, parent int, trace string) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id <= len(t.spans) {
		t.spans[id-1].Parent = parent
		t.spans[id-1].Trace = trace
	}
}

// layerOf is the layer a span name belongs to: its first dotted element.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time in nanoseconds: a span's
// duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		self := float64(s.End-s.Start) - float64(covered(s.Start, s.End, children[s.ID]))
		out[layerOf(s.Name)] += max(self, 0)
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of intervals.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Schema string `json:"schema"`
		Spans  []span `json:"spans"`
	}{"perfbench-spans/v1", t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
