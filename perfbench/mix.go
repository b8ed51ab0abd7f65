package main

import (
	"fmt"
	"math/rand/v2"
)

// Inputs are drawn from the run's seed, one PCG stream per purpose, so a
// seed reproduces every spec, op sequence and storm batch exactly.
const (
	streamHot uint64 = iota + 1
	streamPrimeKeys
	streamPrimeJobs
	streamStorm
	streamClient // + client index
	streamWarm   = streamClient + 64
)

func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// heavyIDs are the two experiments whose functional memory dominates the
// full suite; the serve workloads leave them out, so an op costs
// milliseconds rather than seconds.
var heavyIDs = map[string]bool{"fig14": true, "managed": true}

// fastIDs are experiments that simulate in under a millisecond: the
// misses of serve-durable and its primed store draw from them, so a miss
// costs journal and store I/O rather than simulation.
var fastIDs = []string{"table1", "fig12a", "fig17", "fig11", "powershift", "scopes", "fig18", "prefetch"}

// modelIDs filters a registry's IDs down to the non-heavy experiments.
func modelIDs(all []string) []string {
	var out []string
	for _, id := range all {
		if !heavyIDs[id] {
			out = append(out, id)
		}
	}
	return out
}

// jobSpec is one submission: an experiment and its (inert but hashed)
// seed. Distinct seeds give distinct content addresses and therefore
// distinct cache entries, while the manifest stays the experiment's.
type jobSpec struct {
	Experiment string
	Seed       uint64
}

func (s jobSpec) body() []byte {
	return []byte(fmt.Sprintf(`{"experiment":%q,"seed":%d}`, s.Experiment, s.Seed))
}

// Mix sizes. No trace of real apusimd callers exists to fit them to, so
// they are not a model of real traffic: each is picked for what it makes
// the workload measure (README.md, "The serve mix"). Every experiment
// appears equally often in the hot set and the primed store, so a seed
// changes which specs are drawn (their seeds, hence their content
// addresses) but not the mix of experiments, whose manifests and
// simulation costs differ widely.
const (
	// serve-hits: more than one spec per experiment, so the LRU holds
	// several entries per experiment; the 58 specs fit the default
	// -cache-bytes, so every measured op is a hit (measured hit ratio 1).
	hotSetPerExp = 2
	// serve-durable: 480 stored specs, three times what -cache-bytes
	// (a third of the store) holds, so about two hits in three read the
	// store.
	primeKeysPer = 60
	// Jobs in the primed journal: the restart over them is serve-durable's
	// set-up (about 50 ms of replay on the reference box).
	primeJobs = 3400
	// Every 8th op is a miss: measured on the reference box, misses then
	// carry about half of the mean op latency, and hits (LRU and store
	// reads) the other half, so both paths are a large share of serving
	// time.
	missEvery     = 8
	primedSeedMax = 1 << 30 // primed and hot seeds lie below; miss seeds above
)

// stratified draws perExp distinct seeds for each experiment in ids.
func stratified(rng *rand.Rand, ids []string, perExp int) []jobSpec {
	seen := map[jobSpec]bool{}
	var out []jobSpec
	for _, id := range ids {
		for n := 0; n < perExp; {
			s := jobSpec{id, 1 + rng.Uint64N(primedSeedMax-1)}
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
				n++
			}
		}
	}
	return out
}

// hotSet draws serve-hits' hot set over every non-heavy experiment.
func hotSet(seed uint64, ids []string) []jobSpec {
	return stratified(newRNG(seed, streamHot), ids, hotSetPerExp)
}

// primedKeys draws serve-durable's stored working set, and primedJobList
// the job history that references it.
func primedKeys(seed uint64) []jobSpec {
	return stratified(newRNG(seed, streamPrimeKeys), fastIDs, primeKeysPer)
}

func primedJobList(seed uint64, keys []jobSpec) []jobSpec {
	rng := newRNG(seed, streamPrimeJobs)
	out := make([]jobSpec, primeJobs)
	for i := range out {
		out[i] = keys[rng.IntN(len(keys))]
	}
	return out
}

// opStream is one closed-loop client's op sequence. For serve-hits every
// op picks a hot spec; for serve-durable every missEvery-th op is a miss
// (the fast experiments in turn, each at a fresh seed) and the rest pick
// a primed key.
type opStream struct {
	rng     *rand.Rand
	pool    []jobSpec
	misses  bool
	counter int
}

func newOpStream(seed, stream uint64, pool []jobSpec, misses bool) *opStream {
	return &opStream{rng: newRNG(seed, stream), pool: pool, misses: misses}
}

// next returns the next spec and whether it is meant to miss the cache.
func (o *opStream) next() (jobSpec, bool) {
	o.counter++
	if o.misses && o.counter%missEvery == 0 {
		id := fastIDs[(o.counter/missEvery)%len(fastIDs)]
		return jobSpec{id, primedSeedMax + o.rng.Uint64N(1<<40)}, true
	}
	return o.pool[o.rng.IntN(len(o.pool))], false
}

// stormSeed is the base seed of the fault-storm batch the layer sweep
// times (runner.storm_ms), and stormCount the number of storms in it.
func stormSeed(seed uint64) uint64 { return newRNG(seed, streamStorm).Uint64()>>1 | 1 }

const stormCount = 16
