package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sync"
)

// refSchema identifies reference.json's layout.
const refSchema = "perfbench-reference/v1"

// reference is the correctness gate: for every registered experiment, the
// status it must reach, the sha256 of its output text when the suite runs
// it, and the sha256 of the manifest apusimd serves for it. Regenerating
// it is an explicit mode (-regen-refs), never a side effect of a run.
type reference struct {
	Schema      string                `json:"schema"`
	Note        string                `json:"note"`
	StormStatus string                `json:"storm_status"`
	Experiments map[string]experiment `json:"experiments"`

	mu     sync.Mutex
	passed map[string][]byte // experiment → last manifest that passed
}

type experiment struct {
	Status         string `json:"status"`
	OutputSHA256   string `json:"output_sha256"`
	ManifestSHA256 string `json:"manifest_sha256"`
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// wallNS matches the one wall-clock field that reaches served manifests:
// the engine profile's per-class wall_ns inside the telemetry summary of
// telemetry-bearing experiments (raschan, rasecc). It differs run to run.
var wallNS = regexp.MustCompile(`"wall_ns": [0-9]+`)

// manifestDigest is the sha256 of a served manifest with every wall_ns
// value zeroed; every other byte must match.
func manifestDigest(m []byte) string {
	return digest(wallNS.ReplaceAll(m, []byte(`"wall_ns": 0`)))
}

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference digests: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if ref.Schema != refSchema || len(ref.Experiments) == 0 {
		return nil, fmt.Errorf("%s: not a %s file", path, refSchema)
	}
	return &ref, nil
}

func (r *reference) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkOutput gates one suite result: its status and output text must
// match the reference exactly.
func (r *reference) checkOutput(id, status, output string) error {
	want, ok := r.Experiments[id]
	if !ok {
		return fmt.Errorf("experiment %s: not in the reference digests", id)
	}
	if status != want.Status {
		return fmt.Errorf("experiment %s: status %q, want %q", id, status, want.Status)
	}
	if got := digest([]byte(output)); got != want.OutputSHA256 {
		return fmt.Errorf("experiment %s: output sha256 %s, want %s", id, got, want.OutputSHA256)
	}
	return nil
}

// checkManifest gates one served manifest. Manifests do not depend on an
// experiment job's seed, so one digest covers every seed. The last
// manifest that passed is kept per experiment, so a repeat of the same
// bytes is checked by comparison instead of hashing: the load generator
// shares the CPUs with the daemon it measures.
func (r *reference) checkManifest(id string, manifest []byte) error {
	want, ok := r.Experiments[id]
	if !ok {
		return fmt.Errorf("experiment %s: not in the reference digests", id)
	}
	r.mu.Lock()
	seen := r.passed[id]
	r.mu.Unlock()
	if bytes.Equal(seen, manifest) {
		return nil
	}
	if got := manifestDigest(manifest); got != want.ManifestSHA256 {
		return fmt.Errorf("experiment %s: served manifest sha256 %s, want %s", id, got, want.ManifestSHA256)
	}
	r.mu.Lock()
	if r.passed == nil {
		r.passed = map[string][]byte{}
	}
	r.passed[id] = manifest
	r.mu.Unlock()
	return nil
}

// statusCounts tallies the reference statuses, e.g. {"ok": 26, "degraded": 5}.
func (r *reference) statusCounts() map[string]int {
	out := map[string]int{}
	for _, e := range r.Experiments {
		out[e.Status]++
	}
	return out
}
