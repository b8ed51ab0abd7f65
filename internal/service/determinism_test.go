package service

import (
	"bytes"
	"context"
	"testing"
	"time"

	apusim "repro"
	"repro/internal/runner"
)

// TestServedRASManifestsAreByteIdentical simulates the RAS experiments
// whose manifests carry a telemetry engine profile on two fresh servers.
// The manifests must be byte-identical, because the cache serves a
// manifest under its spec's content address; the profile's per-class
// wall_ns is wall-clock time and must render as 0.
func TestServedRASManifestsAreByteIdentical(t *testing.T) {
	for _, exp := range []string{"raschan", "rasecc"} {
		spec, err := ParseSpec([]byte(`{"experiment": "` + exp + `"}`))
		if err != nil {
			t.Fatalf("ParseSpec(%s): %v", exp, err)
		}
		var manifests [2][]byte
		for i := range manifests {
			s, err := New(Config{
				Workers:      1,
				Registry:     apusim.Experiments(),
				FaultPlanRun: apusim.ExperimentFaultPlan,
				JobTimeout:   time.Minute,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			res, m := s.simulate(&Job{spec: spec})
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = s.Drain(ctx)
			cancel()
			if res.Status != runner.StatusDegraded || m == nil {
				t.Fatalf("%s run %d: status %s, manifest %d bytes; want a degraded run with a manifest", exp, i, res.Status, len(m))
			}
			manifests[i] = m
		}
		a, b := bytes.Split(manifests[0], []byte("\n")), bytes.Split(manifests[1], []byte("\n"))
		for i := 0; i < len(a) && i < len(b); i++ {
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("%s: manifests from two fresh servers differ at line %d: %s vs %s", exp, i+1, a[i], b[i])
				break
			}
		}
		if len(a) != len(b) {
			t.Errorf("%s: manifests from two fresh servers have %d and %d lines", exp, len(a), len(b))
		}
		if !bytes.Contains(manifests[0], []byte(`"wall_ns": 0`)) {
			t.Errorf("%s: manifest carries no zeroed engine-profile wall_ns", exp)
		}
	}
}
