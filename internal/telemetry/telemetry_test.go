package telemetry

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestRegisterRejectsBadNames(t *testing.T) {
	r := NewRecorder()
	if err := r.Register("", KindGauge, func(_, _ sim.Time) float64 { return 0 }); err == nil {
		t.Error("empty probe name accepted")
	}
	if err := r.Register("a", KindGauge, func(_, _ sim.Time) float64 { return 0 }); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("a", KindGauge, func(_, _ sim.Time) float64 { return 0 }); err == nil {
		t.Error("duplicate probe name accepted")
	}
}

func TestLateRegistrationBackfills(t *testing.T) {
	r := NewRecorder()
	r.Gauge("early", func(sim.Time) float64 { return 1 })
	r.Sample(0)
	r.Sample(50 * sim.Microsecond)
	r.Gauge("late", func(sim.Time) float64 { return 2 })
	r.Sample(100 * sim.Microsecond)

	late, ok := r.SeriesByName("late")
	if !ok {
		t.Fatal("late series missing")
	}
	want := []float64{0, 0, 2}
	if len(late.Values) != len(want) {
		t.Fatalf("late has %d values, want %d", len(late.Values), len(want))
	}
	for i, v := range want {
		if late.Values[i] != v {
			t.Errorf("late[%d] = %g, want %g", i, late.Values[i], v)
		}
	}
}

func TestRateDifferencesCumulativeCounter(t *testing.T) {
	r := NewRecorder()
	var counter float64
	r.Rate("bytes", func() float64 { return counter })

	counter = 100
	r.Sample(0) // first sample: no interval yet, must be 0
	counter = 300
	r.Sample(100 * sim.Microsecond) // +200 over 100µs = 2e6/s
	r.Sample(200 * sim.Microsecond) // no movement

	s, _ := r.SeriesByName("bytes")
	want := []float64{0, 2e6, 0}
	for i, v := range want {
		if math.Abs(s.Values[i]-v) > 1e-6*math.Abs(v) {
			t.Errorf("bytes[%d] = %g, want %g", i, s.Values[i], v)
		}
	}
}

func TestUtilizationClamps(t *testing.T) {
	r := NewRecorder()
	var moved float64
	r.Utilization("util", 1e9, func() float64 { return moved })
	r.Sample(0)
	moved = 1e12 // far beyond capacity×dt: must clamp to 1
	r.Sample(100 * sim.Microsecond)
	s, _ := r.SeriesByName("util")
	if s.Values[1] != 1 {
		t.Errorf("util did not clamp to 1: %g", s.Values[1])
	}
}

func TestNonFiniteSamplesRecordedAsZero(t *testing.T) {
	r := NewRecorder()
	r.Gauge("nan", func(sim.Time) float64 { return math.NaN() })
	r.Gauge("inf", func(sim.Time) float64 { return math.Inf(1) })
	r.Sample(0)
	for _, name := range []string{"nan", "inf"} {
		s, _ := r.SeriesByName(name)
		if s.Values[0] != 0 {
			t.Errorf("%s sampled as %g, want 0", name, s.Values[0])
		}
	}
}

func TestSamplerGridIsAbsolute(t *testing.T) {
	eng := sim.NewEngine()
	// Advance the engine off-grid so the first tick must snap up to the
	// next absolute grid point, not drift to now+cadence.
	eng.Schedule(30*sim.Microsecond, sim.ClassDefault, func(sim.Time) {})
	eng.RunAll()

	rec := NewRecorder()
	rec.Gauge("g", func(sim.Time) float64 { return 1 })
	s := NewSampler(eng, rec, 50*sim.Microsecond)
	n := s.Arm(200 * sim.Microsecond)
	if n != 4 {
		t.Fatalf("armed %d ticks, want 4 (50/100/150/200µs)", n)
	}
	eng.RunAll()
	want := []sim.Time{50 * sim.Microsecond, 100 * sim.Microsecond,
		150 * sim.Microsecond, 200 * sim.Microsecond}
	times := rec.Times()
	if len(times) != len(want) {
		t.Fatalf("sampled %d times, want %d", len(times), len(want))
	}
	for i, w := range want {
		if times[i] != w {
			t.Errorf("tick %d at %v, want %v", i, times[i], w)
		}
	}
}

func TestArmForeverPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Arm(Forever) did not panic")
		}
	}()
	eng := sim.NewEngine()
	NewSampler(eng, NewRecorder(), 50*sim.Microsecond).Arm(sim.Forever)
}

func TestEngineProfileCountsClasses(t *testing.T) {
	eng := sim.NewEngine()
	rec := NewRecorder()
	rec.Gauge("g", func(sim.Time) float64 { return 0 })
	rec.ObserveEngine(eng)
	eng.Schedule(sim.Microsecond, eng.Class("ras.fault"), func(sim.Time) {})
	NewSampler(eng, rec, 50*sim.Microsecond).Arm(100 * sim.Microsecond)
	eng.RunAll()

	classes := rec.Profile().Classes()
	got := map[string]uint64{}
	for _, c := range classes {
		got[c.Class] = c.Fired
		if c.WallNS < 0 {
			t.Errorf("class %s has negative wall", c.Class)
		}
	}
	// Ticks land on the absolute grid 0/50/100µs — three of them.
	if got["ras.fault"] != 1 || got[SampleClass] != 3 {
		t.Errorf("class counts = %v, want ras.fault:1 %s:3", got, SampleClass)
	}

	d := rec.Dump()
	if d.Engine == nil || d.Engine.QueueHighWater == 0 {
		t.Error("dump engine section missing or queue high-water zero")
	}
	for _, c := range d.Engine.Classes {
		_ = c.Fired // fired counts only: the deterministic dump has no wall field
	}
}

func TestSummaryStats(t *testing.T) {
	r := NewRecorder()
	vals := []float64{4, 1, 3}
	i := 0
	r.Gauge("g", func(sim.Time) float64 { v := vals[i]; i++; return v })
	for k := range vals {
		r.Sample(sim.Time(k) * 50 * sim.Microsecond)
	}
	s := r.Summary()
	if s.Schema != DumpSchema || s.Samples != 3 {
		t.Fatalf("summary header wrong: %+v", s)
	}
	p := s.Probes[0]
	if p.Min != 1 || p.Max != 4 || p.Last != 3 || math.Abs(p.Mean-8.0/3) > 1e-12 {
		t.Errorf("summary stats = %+v", p)
	}
}

func TestCSVShape(t *testing.T) {
	r := NewRecorder()
	r.Gauge("a", func(sim.Time) float64 { return 1 })
	r.Gauge("b", func(sim.Time) float64 { return 2 })
	r.Sample(0)
	r.Sample(50 * sim.Microsecond)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "t_ns,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 3 {
		t.Errorf("%d lines, want 3", len(lines))
	}
}

// TestDumpGolden pins the series-dump schema: the JSON layout (field
// names, ordering, schema string) of a small deterministic recorder must
// match testdata/dump_golden.json byte for byte. Regenerate with
// UPDATE_GOLDEN=1 go test ./internal/telemetry -run TestDumpGolden
// and review the diff — a change here is a schema change.
func TestDumpGolden(t *testing.T) {
	rec := NewRecorder()
	rec.SetCadence(50 * sim.Microsecond)
	var moved float64
	rec.Gauge("hbm.live_channels", func(sim.Time) float64 { return 128 })
	rec.Rate("hbm.bw", func() float64 { return moved })
	for i := 0; i < 3; i++ {
		moved += 1 << 20
		rec.Sample(sim.Time(i) * 50 * sim.Microsecond)
	}

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "dump_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("dump JSON deviates from golden schema file.\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
	if !strings.Contains(buf.String(), `"schema": "`+DumpSchema+`"`) {
		t.Errorf("dump does not carry schema %q", DumpSchema)
	}
}
