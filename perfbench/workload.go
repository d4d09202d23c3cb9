package main

import (
	"sort"

	"socialtrust/internal/interest"
	"socialtrust/internal/rating"
	"socialtrust/internal/socialgraph"
	"socialtrust/internal/xrand"
)

// workload is one input family of the benchmark. Every input is drawn from
// the run's seed; the program under test sees only the generated social
// graph, interest sets, rating stream, graph mutations and queries.
type workload struct {
	name    string
	nodes   int
	raters  int  // active raters per interval (pretrusted peers and colluders included)
	repeats int  // ratings per normal pair per interval
	fresh   bool // draw fresh ratees every interval instead of a fixed pair set

	pcmPairs       int // planted pair-wise collusion (PCM) pairs
	mcmGroups      int // planted multi-node collusion (MCM) groups of mcmGroupSize
	collusionRates int // positive ratings per collusion edge per interval

	mutations      int  // social-graph mutations per interval
	trackerRecords int  // interest.Tracker request records per interval
	queries        bool // run the open-loop reputation query stream

	// grows marks a stream whose state grows every interval, so the cost
	// of an interval drifts with its position (the GC runs less often as
	// the live heap grows): its end-to-end timings are read over the
	// prefix alone, so every run times the same stream positions.
	grows bool

	durable bool // shard WALs under the run's state directory
	workers int  // shard worker processes over the socket transport (0 = in-process)

	warmup int // warm-up intervals inside set-up
	// prefix is the fixed-work prefix of the measured window, in intervals:
	// the window always covers it, and the figures that grow with the state
	// the stream builds up (peak RSS, the colluder reputation ratio) are
	// read over it alone.
	prefix int
}

const (
	numShards    = 16   // manager shards fronting the engine
	numPretrust  = 20   // pretrusted peers: node IDs 0..numPretrust-1
	numCats      = 16   // interest category universe
	catsPerNode  = 4    // interest categories per node
	batchSize    = 8192 // ratings per SubmitBatch call
	mcmGroupSize = 5    // one boosted colluder plus four boosters
	degree       = 6    // random friendships grown per node
	maxHops      = 3    // core.Config.Closeness.MaxPathHops
	rateesPer    = 4    // ratees per active rater per interval
	queryRate    = 1000 // open-loop reputation queries per second
)

// workloads lists the benchmark's input families by name.
var workloads = map[string]workload{
	// Every node rates four fresh random ratees per interval: every pair
	// misses the signal cache, so the closeness BFS dominates.
	"dense-fresh": {
		name: "dense-fresh", nodes: 10_000,
		raters: 10_000, repeats: 1, fresh: true,
		pcmPairs: 50, mcmGroups: 20, collusionRates: 10,
		grows:  true,
		warmup: 1, prefix: 10,
	},
	// 1% of a large population rates a fixed pair set while the graph
	// churns a little: the signal cache serves most pairs, so cost sits in
	// the BFS of the raters each mutation invalidates, drain, EigenTrust row
	// updates and GC. Reputation queries arrive open-loop alongside.
	"warm-churn": {
		name: "warm-churn", nodes: 50_000,
		raters: 500, repeats: 1,
		pcmPairs: 25, mcmGroups: 10, collusionRates: 10,
		mutations: 2, trackerRecords: 50, queries: true,
		warmup: 3, prefix: 40,
	},
	// Heavy ingest on a warm pair set with shard WALs on: the write path.
	"durable-ingest": {
		name: "durable-ingest", nodes: 10_000,
		raters: 5_000, repeats: 5,
		pcmPairs: 20, mcmGroups: 10, collusionRates: 40,
		durable: true,
		warmup:  2, prefix: 8,
	},
	// The durable-ingest stream with the shards in two worker processes
	// that own their WALs.
	"cluster-ingest": {
		name: "cluster-ingest", nodes: 10_000,
		raters: 5_000, repeats: 5,
		pcmPairs: 20, mcmGroups: 10, collusionRates: 40,
		durable: true, workers: 2,
		warmup: 2, prefix: 8,
	},
}

// workloadNames returns the workload names in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// world is the generated population: social graph, interest profiles and
// the planted collusion structure.
type world struct {
	n          int
	graph      *socialgraph.Graph
	sets       []interest.Set
	pretrusted []int
	colluder   []bool
	// collusion lists the directed collusion edges, each rated
	// collusionRates times per interval with +1.
	collusion []rating.PairKey
	// raters is the fixed active rater set (all nodes for dense workloads);
	// fixed the fixed normal pair set of warm workloads.
	raters []int
	fixed  []rating.PairKey
}

// buildWorld generates the population of w from seed.
//
// Collusion is planted the way the paper's evaluation sets it up, so the
// filter's behaviours B1–B3 all have something to find:
//   - PCM pairs are friends with several relationships and draw their
//     interests from disjoint halves of the category space: a close pair
//     with few common interests rating each other at high frequency (B2,
//     B3).
//   - MCM groups share one interest profile; four boosters rate the boosted
//     member at high frequency. Two boosters are its friends (B2), two have
//     no planted tie and usually sit beyond the closeness hop radius (B1).
func buildWorld(w workload, seed uint64) *world {
	rng := xrand.New(seed).SplitString("world")
	n := w.nodes
	wd := &world{
		n:        n,
		graph:    socialgraph.New(n),
		sets:     make([]interest.Set, n),
		colluder: make([]bool, n),
	}
	for i := 0; i < numPretrust; i++ {
		wd.pretrusted = append(wd.pretrusted, i)
	}
	friend := socialgraph.Relationship{Kind: socialgraph.Friendship}
	for i := 0; i < n; i++ {
		for d := 0; d < degree; d++ {
			if j := rng.Intn(n); j != i {
				wd.graph.AddRelationship(socialgraph.NodeID(i), socialgraph.NodeID(j), friend)
			}
		}
	}
	for i := range wd.sets {
		wd.sets[i] = drawSet(rng, 0, numCats)
	}

	// Colluders are drawn from the non-pretrusted population.
	need := 2*w.pcmPairs + mcmGroupSize*w.mcmGroups
	perm := rng.Perm(n - numPretrust)
	ids := make([]int, need)
	for k := range ids {
		ids[k] = numPretrust + perm[k]
		wd.colluder[ids[k]] = true
	}
	tie := func(a, b int) {
		for r := 0; r < 3; r++ {
			wd.graph.AddRelationship(socialgraph.NodeID(a), socialgraph.NodeID(b), friend)
		}
	}
	for k := 0; k < w.pcmPairs; k++ {
		a, b := ids[2*k], ids[2*k+1]
		wd.sets[a] = drawSet(rng, 0, numCats/2)
		wd.sets[b] = drawSet(rng, numCats/2, numCats)
		tie(a, b)
		wd.collusion = append(wd.collusion,
			rating.PairKey{Rater: a, Ratee: b}, rating.PairKey{Rater: b, Ratee: a})
	}
	for k := 0; k < w.mcmGroups; k++ {
		group := ids[2*w.pcmPairs+k*mcmGroupSize:][:mcmGroupSize]
		boosted := group[0]
		for m, booster := range group[1:] {
			wd.sets[booster] = wd.sets[boosted]
			if m < 2 {
				tie(booster, boosted)
			}
			wd.collusion = append(wd.collusion, rating.PairKey{Rater: booster, Ratee: boosted})
		}
	}

	if w.fresh {
		wd.raters = make([]int, n)
		for i := range wd.raters {
			wd.raters[i] = i
		}
		return wd
	}
	// Warm workloads: a fixed active set of pretrusted peers, colluders and
	// random normal peers, rating a fixed pair set among themselves.
	active := make([]bool, n)
	add := func(i int) {
		if !active[i] {
			active[i] = true
			wd.raters = append(wd.raters, i)
		}
	}
	for _, p := range wd.pretrusted {
		add(p)
	}
	for _, c := range ids {
		add(c)
	}
	for len(wd.raters) < w.raters {
		add(rng.Intn(n))
	}
	wd.fixed = wd.assign(rng, wd.raters, nil)
	return wd
}

// assign draws rateesPer ratees for every rater in set from set itself, one
// random permutation per round, so every member is rated exactly rateesPer
// times and reputation inflow is spread evenly rather than by chance.
// Pretrusted peers never pick a colluder: a trust source's direct vote
// carries so much reputation that its hitting a colluder or not would
// dominate the collusion figure. The pairs are appended to out.
func (wd *world) assign(rng *xrand.Stream, set []int, out []rating.PairKey) []rating.PairKey {
	m := len(set)
	trusted := len(wd.pretrusted)
	for k := 0; k < rateesPer; k++ {
		perm := rng.Perm(m)
		for i, r := range set {
			x := perm[i]
			for set[x] == r || (r < trusted && wd.colluder[set[x]]) {
				x = (x + 1) % m
			}
			out = append(out, rating.PairKey{Rater: r, Ratee: set[x]})
		}
	}
	return out
}

// drawSet draws catsPerNode distinct categories from [lo, hi).
func drawSet(rng *xrand.Stream, lo, hi int) interest.Set {
	picked := rng.SampleWithout(hi-lo, catsPerNode, nil)
	cats := make([]interest.Category, len(picked))
	for i, c := range picked {
		cats[i] = interest.Category(lo + c)
	}
	return interest.NewSet(cats...)
}

// intervalInput is everything one interval feeds the program: the ratings
// in arrival order, the social-graph mutations and the request records.
type intervalInput struct {
	ratings   []rating.Rating
	mutations [][2]socialgraph.NodeID
	records   []trackerRecord
}

type trackerRecord struct {
	node int
	cat  interest.Category
}

// stream draws the per-interval inputs of one workload. Sequence numbers
// increase across the whole run: they are the WAL replay dedupe key.
type stream struct {
	w     workload
	wd    *world
	rng   *xrand.Stream
	seq   uint64
	buf   []rating.Rating
	pairs []rating.PairKey // fresh workloads: this interval's pair draw
}

func newStream(w workload, wd *world, seed uint64) *stream {
	return &stream{w: w, wd: wd, rng: xrand.New(seed).SplitString("stream")}
}

// next draws interval iv's input. The returned ratings slice is reused by
// the following call.
func (s *stream) next(iv int) intervalInput {
	w, wd, rng := s.w, s.wd, s.rng
	rs := s.buf[:0]
	add := func(rater, ratee int, v float64) {
		rs = append(rs, rating.Rating{
			Rater: rater, Ratee: ratee, Value: v,
			Cycle: iv, Category: rng.Intn(numCats),
		})
	}
	value := func() float64 {
		if rng.Float64() < 0.2 {
			return -1
		}
		return 1
	}
	if w.fresh {
		s.pairs = wd.assign(rng, wd.raters, s.pairs[:0])
		for _, p := range s.pairs {
			add(p.Rater, p.Ratee, value())
		}
	} else {
		for _, p := range wd.fixed {
			for k := 0; k < w.repeats; k++ {
				add(p.Rater, p.Ratee, value())
			}
		}
	}
	for _, p := range wd.collusion {
		for k := 0; k < w.collusionRates; k++ {
			add(p.Rater, p.Ratee, 1)
		}
	}
	rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
	for i := range rs {
		s.seq++
		rs[i].Seq = s.seq
	}
	s.buf = rs

	in := intervalInput{ratings: rs}
	for k := 0; k < w.mutations; k++ {
		a := rng.Intn(wd.n)
		b := rng.Intn(wd.n)
		if a == b {
			b = (b + 1) % wd.n
		}
		in.mutations = append(in.mutations, [2]socialgraph.NodeID{socialgraph.NodeID(a), socialgraph.NodeID(b)})
	}
	for k := 0; k < w.trackerRecords; k++ {
		in.records = append(in.records, trackerRecord{
			node: wd.raters[rng.Intn(len(wd.raters))],
			cat:  interest.Category(rng.Intn(numCats)),
		})
	}
	return in
}
