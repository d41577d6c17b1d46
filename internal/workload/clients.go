package workload

// A Population models a very large client base — far more clients than
// any harness could run as individual processes — multiplexed over a
// bounded set of deterministic generator streams. Each stream owns a
// disjoint client shard and an independent PRNG seeded from (Seed,
// shard), so the request sequence of every shard is a pure function of
// the population parameters: the same seed produces byte-identical
// streams no matter how many streams run concurrently or on how many OS
// threads the harness schedules them.
//
// The document-popularity CDF is memoized process-wide by (docs, alpha)
// — see zipfCDF — and shared read-only by all streams of all populations
// over the same working set, so a sweep running many 10^6-client cells
// costs one CDF, not one per cell (let alone one per driver).

import "math/rand"

// Population describes a client base issuing Zipf-distributed document
// requests.
type Population struct {
	// Clients is the modeled client count (may be millions).
	Clients int
	// Docs is the working-set size.
	Docs int
	// Alpha is the Zipf exponent of document popularity.
	Alpha float64
	// Seed roots every stream's PRNG.
	Seed int64

	tab *zipfTable
}

// NewPopulation builds a population and its shared popularity CDF.
func NewPopulation(clients, docs int, alpha float64, seed int64) *Population {
	if clients <= 0 || docs <= 0 {
		panic("workload: population needs clients > 0 and docs > 0")
	}
	return &Population{Clients: clients, Docs: docs, Alpha: alpha, Seed: seed, tab: zipfCDF(alpha, docs)}
}

// Request is one generated client request.
type Request struct {
	// Client identifies the issuing client within the population.
	Client int
	// Doc is the requested document rank (0 = most popular).
	Doc int
}

// Stream is one generator shard of a population. It is not safe for
// concurrent use; each driver owns its own stream.
type Stream struct {
	rng      *rand.Rand
	tab      *zipfTable
	clientLo int
	clientN  int
}

// Stream returns generator shard `shard` of `nShards`. Shards partition
// the client population nearly evenly and draw from independent PRNGs,
// so any assignment of shards to concurrent drivers yields the same
// per-shard request sequences.
func (pp *Population) Stream(shard, nShards int) *Stream {
	if nShards <= 0 || shard < 0 || shard >= nShards {
		panic("workload: bad stream shard")
	}
	lo := shard * pp.Clients / nShards
	hi := (shard + 1) * pp.Clients / nShards
	if hi == lo {
		hi = lo + 1 // tiny populations: give every shard at least one client
	}
	return &Stream{
		rng:      rand.New(rand.NewSource(streamSeed(pp.Seed, shard))),
		tab:      pp.tab,
		clientLo: lo,
		clientN:  hi - lo,
	}
}

// streamSeed derives a well-mixed per-shard seed (splitmix64 finalizer),
// so adjacent shards don't produce correlated rand.Source states.
func streamSeed(seed int64, shard int) int64 {
	z := uint64(seed) + uint64(shard+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}

// Next generates the shard's next request: a client drawn uniformly from
// the shard and a document drawn from the shared popularity CDF.
func (s *Stream) Next() Request {
	c := s.clientLo + s.rng.Intn(s.clientN)
	d := s.tab.search(s.rng.Float64())
	return Request{Client: c, Doc: d}
}
