package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	apusim "repro"
	"repro/internal/chiplet"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/progmodel"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/sim"
)

// The layer sweep times calls into each module's public functions on
// fixed op streams, from the benchmark's own code. Every traced run makes
// it, so every per-layer metric is present whatever the workload; each
// call group is one span under a bench.sweep root.

// sweep runs every layer measurement and fills m.
func sweep(env *benchEnv, m map[string]float64) error {
	start := time.Now()
	var ids []int
	timed := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		ids = append(ids, env.tr.record(name, "", 0, t0, time.Now()))
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"runner.per_experiment", func() error { return sweepRunner(env, m) }},
		{"progmodel.programs", func() error { return sweepProgmodel(m) }},
		{"mem.space", func() error { return sweepSpace(m) }},
		{"model.layers", func() error { return sweepModel(m) }},
		{"service.calls", func() error { return sweepService(env, m) }},
		{"durable.calls", func() error { return sweepDurable(env, m) }},
	}
	for _, s := range steps {
		if err := timed(s.name, s.fn); err != nil {
			return err
		}
	}
	root := env.tr.record("bench.sweep", "", 0, start, time.Now())
	for _, id := range ids {
		env.tr.setParent(id, root, "")
	}
	return nil
}

// sweepRunner times RunSuite one experiment ID at a time (runner.exp_ms.*)
// and a batch of chaos fault storms with auditing armed, as `repro
// -chaos-seed` runs them (runner.storm_ms, mean per storm). Every output
// is checked against the reference; storms have no stored output, so the
// batch runs twice and every storm must end degraded and repeat its
// output exactly.
func sweepRunner(env *benchEnv, m map[string]float64) error {
	reg := apusim.Experiments()
	for _, id := range reg.IDs() {
		t0 := time.Now()
		suite, err := reg.RunSuite(runner.Options{Parallel: 1, IDs: []string{id}})
		if err != nil {
			return err
		}
		m["runner.exp_ms."+id] = time.Since(t0).Seconds() * 1e3
		r := suite.Results[0]
		if err := env.ref.checkOutput(r.ID, string(r.Status), r.Output); err != nil {
			return err
		}
	}
	reg = reg.Clone() // the shared registry stays storm-free
	before := reg.Len()
	apusim.RegisterChaosStorms(reg, stormSeed(env.seed), stormCount)
	storms := reg.IDs()[before:]
	outputs := map[string]string{}
	var wall time.Duration
	for pass := 0; pass < 2; pass++ {
		t0 := time.Now()
		suite, err := reg.RunSuite(runner.Options{Parallel: 1, IDs: storms, Audit: true})
		if err != nil {
			return err
		}
		wall += time.Since(t0)
		for _, r := range suite.Results {
			if string(r.Status) != env.ref.StormStatus {
				return fmt.Errorf("storm %s: status %q, want %q (%v)", r.ID, r.Status, env.ref.StormStatus, r.Err)
			}
			d := digest([]byte(r.Output))
			if want, seen := outputs[r.ID]; seen && want != d {
				return fmt.Errorf("storm %s: output changed between two runs of the same seed", r.ID)
			}
			outputs[r.ID] = d
		}
	}
	m["runner.storm_ms"] = wall.Seconds() * 1e3 / float64(2*len(storms))
	return nil
}

// sweepProgmodel times the public Run* programs at the sizes the suite
// uses (fig14 and managed: n = 1<<22; fig15: n = 1<<20 in 64 chunks), each
// on a fresh platform.
func sweepProgmodel(m map[string]float64) error {
	const n = 1 << 22
	progs := []struct {
		name string
		spec func() *config.PlatformSpec
		run  func(*core.Platform) error
	}{
		{"cpu_only", config.MI300A, func(p *core.Platform) error { _, err := progmodel.RunCPUOnly(p, n); return err }},
		{"discrete", config.MI250X, func(p *core.Platform) error { _, err := progmodel.RunDiscrete(p, n); return err }},
		{"apu", config.MI300A, func(p *core.Platform) error { _, err := progmodel.RunAPU(p, n); return err }},
		{"managed", config.MI250X, func(p *core.Platform) error { _, _, err := progmodel.RunManaged(p, n); return err }},
		{"overlap", config.MI300A, func(p *core.Platform) error { _, err := progmodel.RunOverlap(p, 1<<20, 64); return err }},
	}
	for _, pr := range progs {
		p, err := core.NewPlatform(pr.spec())
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := pr.run(p); err != nil {
			return fmt.Errorf("%s: %w", pr.name, err)
		}
		m["progmodel."+pr.name+"_ms"] = time.Since(t0).Seconds() * 1e3
	}
	return nil
}

// reps is how many repetitions a microbenchmark takes the median of.
const reps = 3

// sweepSpace replays the kernels' per-element float64 access pattern on a
// functional address space, plus 4 KiB bulk writes.
func sweepSpace(m map[string]float64) error {
	const elems = 1 << 21
	var w, r, bulk []float64
	for i := 0; i < reps; i++ {
		var sum float64
		s := mem.NewSpace("bench", 1<<34)
		t0 := time.Now()
		for j := int64(0); j < elems; j++ {
			s.WriteFloat64(j*8, float64(j))
		}
		w = append(w, float64(time.Since(t0).Nanoseconds())/elems)
		t0 = time.Now()
		for j := int64(0); j < elems; j++ {
			sum += s.ReadFloat64(j * 8)
		}
		r = append(r, float64(time.Since(t0).Nanoseconds())/elems)
		if sum != float64(elems)*(elems-1)/2 {
			return fmt.Errorf("read back a sum of %g, wrote %g", sum, float64(elems)*(elems-1)/2)
		}

		const chunk, total = 4096, 64 << 20
		buf := make([]byte, chunk)
		b := mem.NewSpace("bulk", 1<<34)
		t0 = time.Now()
		for off := int64(0); off < total; off += chunk {
			b.Write(off, buf)
		}
		bulk = append(bulk, total/time.Since(t0).Seconds()/1e9)
	}
	m["mem.space.write_f64_ns"] = median(w)
	m["mem.space.read_f64_ns"] = median(r)
	m["mem.space.write_4k_gbps"] = median(bulk)
	return nil
}

// sweepModel times the timing-model layers on fixed op streams against
// fresh MI300A platforms.
func sweepModel(m map[string]float64) error {
	var build []float64
	for i := 0; i < 10; i++ {
		t0 := time.Now()
		if _, err := core.NewPlatform(config.MI300A()); err != nil {
			return err
		}
		build = append(build, time.Since(t0).Seconds()*1e3)
	}
	m["core.platform_build_ms"] = median(build)

	p, err := core.NewPlatform(config.MI300A())
	if err != nil {
		return err
	}
	// XCD dispatch: 228 workgroups of 256 items per kernel.
	k := &gpu.KernelSpec{Name: "bench", Class: config.Matrix, Dtype: config.FP16, FlopsPerItem: 1e4}
	const kernels, wgs = 200, 228
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	var now sim.Time
	for i := 0; i < kernels; i++ {
		if now, err = p.GPU.Dispatch(now, k, wgs*256, 256, 0); err != nil {
			return err
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	m["gpu.dispatch_ns_per_wg"] = float64(el.Nanoseconds()) / (kernels * wgs)
	m["gpu.dispatch_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / kernels

	const ops = 200_000
	rng := newRNG(1, 0)
	addrs := make([]int64, ops)
	for i := range addrs {
		if rng.IntN(10) < 8 { // 80% within a 4 MiB hot region
			addrs[i] = rng.Int64N(4<<20) &^ 63
		} else {
			addrs[i] = rng.Int64N(8<<30) &^ 63
		}
	}
	ic := p.InfCache
	t0 = time.Now()
	for i, a := range addrs {
		ic.Access(sim.Time(i), int(a>>12)%ic.Slices(), a, 64, i%4 == 0)
	}
	m["cache.access_ns"] = float64(time.Since(t0).Nanoseconds()) / ops
	m["cache.hit_ratio"] = ic.HitRate()

	t0 = time.Now()
	for i, a := range addrs {
		p.HBM.Access(sim.Time(i), a, 4096, i%2 == 0)
	}
	m["mem.hbm.access_ns"] = float64(time.Since(t0).Nanoseconds()) / ops

	src, dst := p.Net.NodeByName("IOD-A").ID, p.Net.NodeByName("IOD-D").ID
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		if _, err := p.Net.Transfer(sim.Time(i), src, dst, 4096); err != nil {
			return err
		}
	}
	m["fabric.transfer_ns"] = float64(time.Since(t0).Nanoseconds()) / ops

	const memOps = 50_000
	t0 = time.Now()
	for i := 0; i < memOps; i++ {
		p.GPUMemTime(sim.Time(i), i%6, 64<<10, i%2 == 0)
	}
	m["core.gpu_mem_time_ns"] = float64(time.Since(t0).Nanoseconds()) / memOps

	pkg := chiplet.AssembleMI300A()
	var val []float64
	for i := 0; i < 10; i++ {
		t0 = time.Now()
		if err := pkg.Validate(); err != nil {
			return err
		}
		val = append(val, time.Since(t0).Seconds()*1e3)
	}
	m["chiplet.validate_ms"] = median(val)
	return nil
}

// sweepService replays request bodies through the service layer's spec
// parser, content hash and result cache. The bodies are the serve-durable
// op mix for the run's seed (serve-hits: its hot-set mix).
func sweepService(env *benchEnv, m map[string]float64) error {
	pool, misses := primedKeys(env.seed), true
	if env.workload == "serve-hits" {
		pool, misses = hotSet(env.seed, modelIDs(apusim.Experiments().IDs())), false
	}
	const n = 20_000
	st := newOpStream(env.seed, streamClient, pool, misses)
	bodies := make([][]byte, n)
	for i := range bodies {
		s, _ := st.next()
		bodies[i] = s.body()
	}
	specs := make([]*service.Spec, n)
	t0 := time.Now()
	for i, b := range bodies {
		s, err := service.ParseSpec(b)
		if err != nil {
			return err
		}
		specs[i] = s
	}
	m["service.parse_spec_us"] = time.Since(t0).Seconds() * 1e6 / n
	keys := make([]string, n)
	t0 = time.Now()
	for i, s := range specs {
		keys[i] = s.Hash()
	}
	m["service.spec_hash_us"] = time.Since(t0).Seconds() * 1e6 / n

	cache := service.NewCache(64 << 20)
	manifest := make([]byte, 2048)
	for _, k := range keys {
		cache.Put(k, service.Entry{State: service.JobOK, Manifest: manifest, Attempts: 1})
	}
	t0 = time.Now()
	for _, k := range keys {
		if _, ok := cache.Get(k); !ok {
			return fmt.Errorf("service cache lost key %s", k)
		}
	}
	m["service.cache_get_ns"] = float64(time.Since(t0).Nanoseconds()) / n
	return nil
}

// sweepDurable times the journal and store on a scratch dir inside the
// checkout, and replay/open over a copy of the primed serve-durable dir.
func sweepDurable(env *benchEnv, m map[string]float64) error {
	dir := filepath.Join(env.work, "durable-sweep")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	j, _, _, err := durable.OpenJournalDir(nil, filepath.Join(dir, "journal"), durable.JournalOptions{})
	if err != nil {
		return err
	}
	const appends = 500
	spec := jobSpec{"fig17", 12345}.body()
	t0 := time.Now()
	for i := 0; i < appends; i++ {
		rec := durable.Record{Op: durable.OpSubmit, Job: fmt.Sprintf("j-%06d", i+1), Seq: i + 1,
			Tenant: "default", Key: "sha256:" + digest([]byte{byte(i), byte(i >> 8)}), Spec: spec}
		if err := j.AppendSync(rec); err != nil {
			return err
		}
	}
	m["durable.journal.append_sync_us"] = time.Since(t0).Seconds() * 1e6 / appends
	if err := j.Close(); err != nil {
		return err
	}

	st, err := durable.OpenStore(nil, filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	const entries = 300
	manifest := make([]byte, 2048)
	keys := make([]string, entries)
	t0 = time.Now()
	for i := range keys {
		keys[i] = "sha256:" + digest([]byte(fmt.Sprint(i)))
		if err := st.Put(keys[i], durable.Entry{State: "ok", Attempts: 1, Manifest: manifest}); err != nil {
			return err
		}
	}
	m["durable.store.put_us"] = time.Since(t0).Seconds() * 1e6 / entries
	t0 = time.Now()
	for _, k := range keys {
		if _, ok := st.Get(k); !ok {
			return fmt.Errorf("durable store lost key %s", k)
		}
	}
	m["durable.store.get_us"] = time.Since(t0).Seconds() * 1e6 / entries

	template := filepath.Join(env.work, "primed")
	if _, err := os.Stat(template); err != nil {
		if err := primeTemplate(template, env.seed); err != nil {
			return err
		}
	}
	var replay, open []float64
	for i := 0; i < reps; i++ {
		cp := filepath.Join(dir, fmt.Sprintf("primed-%d", i))
		if err := copyDir(template, cp); err != nil {
			return err
		}
		t0 = time.Now()
		jr, recs, _, err := durable.OpenJournalDir(nil, cp, durable.JournalOptions{})
		if err != nil {
			return err
		}
		replay = append(replay, time.Since(t0).Seconds()*1e3)
		if len(recs) < primeJobs {
			return fmt.Errorf("primed journal replayed %d records, want at least %d", len(recs), primeJobs)
		}
		if err := jr.Close(); err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := durable.OpenStore(nil, cp); err != nil {
			return err
		}
		open = append(open, time.Since(t0).Seconds()*1e3)
	}
	m["durable.journal.replay_ms"] = median(replay)
	m["durable.store.open_ms"] = median(open)
	return nil
}
