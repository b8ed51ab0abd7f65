package sim

import "testing"

// Engine microbenchmarks. These are the workloads behind BENCH_engine.json
// (see ci.sh's bench stage): a steady-state self-rescheduling handler, a
// dispatch-heavy same-timestamp burst, a mixed near/far horizon, and a
// schedule/cancel churn loop. Each reports engine events (or operations)
// per second so the committed baseline tracks throughput, not just ns/op.

// step fires the single earliest finite event, reporting false when none
// remains. Only the benchmarks and allocation guards single-step.
func (e *Engine) step() bool {
	idx, ok := e.nextLive()
	if ok {
		e.fire(idx)
	}
	return ok
}

// BenchmarkEngineSteadyState measures the steady-state hot path: one
// self-rescheduling handler, so every iteration is exactly one Schedule
// plus one dispatch with a warm queue.
func BenchmarkEngineSteadyState(b *testing.B) {
	e := NewEngine()
	cls := e.Class("bench.tick")
	var fn Handler
	fn = func(now Time) { e.Schedule(now+10, cls, fn) }
	e.Schedule(0, cls, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineBurstDispatch measures dispatch-heavy co-scheduling: 512
// handlers at one instant, fired in FIFO order, repeated across epochs.
func BenchmarkEngineBurstDispatch(b *testing.B) {
	const burst = 512
	e := NewEngine()
	cls := e.Class("bench.burst")
	fn := func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := e.Now() + 100
		for j := 0; j < burst; j++ {
			e.Schedule(at, cls, fn)
		}
		e.Run(at)
	}
	b.ReportMetric(float64(b.N)*burst/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineMixedHorizon interleaves near-future and far-future
// scheduling from a seeded stream, the general DES access pattern.
func BenchmarkEngineMixedHorizon(b *testing.B) {
	const batch = 256
	e := NewEngine()
	rng := NewRNG(42)
	cls := e.Class("bench.mixed")
	fn := func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := e.Now()
		for j := 0; j < batch; j++ {
			var d Time
			if j%4 == 3 {
				d = Time(rng.Intn(int(Millisecond))) // far: beyond any near window
			} else {
				d = Time(rng.Intn(int(Microsecond))) // near
			}
			e.Schedule(now+1+d, cls, fn)
		}
		e.RunAll()
	}
	b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineScheduleCancel measures the schedule/cancel churn path:
// every scheduled event is cancelled before it can fire.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine()
	cls := e.Class("bench.cancel")
	fn := func(Time) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := e.Schedule(e.Now()+1000, cls, fn)
		e.Cancel(id)
	}
	b.StopTimer()
	e.RunAll()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
}
