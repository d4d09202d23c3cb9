package socialgraph

import (
	"slices"

	"socialtrust/internal/obs"
)

// Kernel counters, tallied locally and added once per BFS.
var (
	mBFSRuns       = obs.C("socialgraph_bfs_runs_total")
	mBFSVisited    = obs.C("socialgraph_bfs_nodes_visited_total")
	mBFSEarlyExits = obs.C("socialgraph_bfs_early_exits_total")
)

func init() {
	obs.Help("socialgraph_bfs_runs_total", "Bounded breadth-first searches run for closeness path cases and shortest-path queries.")
	obs.Help("socialgraph_bfs_nodes_visited_total", "Nodes discovered by those searches, the source included.")
	obs.Help("socialgraph_bfs_early_exits_total", "Searches stopped before the hop cutoff because every target had been discovered.")
}

// ClosenessParams configures the Ωc computation.
type ClosenessParams struct {
	// Weighted selects the falsification-resistant relationship term of
	// Equation 10 (Σ λ^(l−1)·w_dl) instead of the raw multiplicity m(i,j)
	// of Equation 2.
	Weighted bool
	// Lambda is the relationship scaling weight λ ∈ [0.5,1] of Equation 10.
	// Ignored unless Weighted is set.
	Lambda float64
	// MaxPathHops bounds the BFS used for the min-along-path fallback of
	// Equation 4. The paper observes users transact within ~3 hops; the
	// evaluation never needs paths longer than 4. Zero means 6.
	MaxPathHops int
}

// DefaultClosenessParams returns the configuration used by the paper's
// evaluation: unweighted relationships and a 6-hop path cutoff.
func DefaultClosenessParams() ClosenessParams {
	return ClosenessParams{Weighted: false, Lambda: 0.75, MaxPathHops: 6}
}

func (p ClosenessParams) maxHops() int {
	if p.MaxPathHops <= 0 {
		return 6
	}
	return p.MaxPathHops
}

// MaxHops returns the effective BFS hop cutoff (MaxPathHops with the zero
// value defaulted) — the dependency radius of one closeness computation,
// which invalidation layers combine with Graph.WithinHops.
func (p ClosenessParams) MaxHops() int { return p.maxHops() }

// Closeness computes the social closeness Ωc(i,j) per Equation 4 (or
// Equation 10 when p.Weighted):
//
//   - adjacent nodes: relationship strength × f(i,j) / Σ_k f(i,k). When i
//     has recorded no interactions at all, the frequency ratio degenerates;
//     we then fall back to a uniform-frequency assumption 1/|S_i| so that a
//     fresh network still has meaningful closeness.
//   - non-adjacent with common friends k: Σ_k (Ωc(i,k)+Ωc(k,j))/2.
//   - non-adjacent without common friends: the minimum adjacent closeness
//     along one shortest friendship path between i and j.
//   - unreachable (or i == j): 0 — a node has no rating relationship with
//     itself, and strangers with no social path have no measurable
//     closeness.
//
// It is a one-ratee ClosenessFrom batch.
func (g *Graph) Closeness(i, j NodeID, p ClosenessParams) float64 {
	g.validate(i, j)
	var out [1]float64
	s := g.getScratch()
	g.closenessInto(s, i, []NodeID{j}, p, out[:])
	g.scratch.Put(s)
	return out[0]
}

// ClosenessFrom computes Ωc(i, j) for every ratee j in one batched pass.
// All of rater i's pairs share one bounded BFS, one memo of adjacent
// closenesses from i and one of interaction totals, so the cost is one BFS
// (stopped once every ratee that needs the path case has been reached) plus
// O(deg) per ratee. The batch's working set comes from a per-graph pool, so
// the only allocation is the result slice.
func (g *Graph) ClosenessFrom(i NodeID, ratees []NodeID, p ClosenessParams) []float64 {
	g.validate(i)
	g.validate(ratees...)
	out := make([]float64, len(ratees))
	s := g.getScratch()
	g.closenessInto(s, i, ratees, p, out)
	g.scratch.Put(s)
	return out
}

// closenessInto writes Ωc(i, ratees[k]) to out[k]. Ratees in the adjacent
// and common-friend cases are evaluated directly; the rest are marked as
// BFS targets and evaluated on the tree path once one BFS has reached them
// all (or exhausted the hop cutoff). s is a freshly drawn scratch.
func (g *Graph) closenessInto(s *bfsScratch, i NodeID, ratees []NodeID, p ClosenessParams, out []float64) {
	g.mu.RLock()
	b := closenessBatch{g: g, s: s, i: i, p: p}
	pending := 0
	for k, j := range ratees {
		v, needPath := b.direct(j)
		out[k] = v
		if needPath && s.target[j] != s.stamp {
			s.target[j] = s.stamp
			pending++
		}
	}
	if pending > 0 {
		g.bfs(s, i, p.maxHops(), pending)
		for k, j := range ratees {
			if s.target[j] == s.stamp {
				out[k] = b.pathMin(j)
			}
		}
	}
	g.mu.RUnlock()
}

// bfsScratch is the pooled working set of one closeness batch or path
// query. Every per-node array is valid only where its stamp array holds the
// current batch's stamp, so starting a batch is one increment instead of
// an O(N) clear or allocation.
type bfsScratch struct {
	stamp uint32

	seen   []uint32 // seen[v] == stamp: v discovered by the BFS
	parent []NodeID // BFS tree parent of each seen node (parent[src] == src)
	target []uint32 // target[v] == stamp: the batch needs a path to v

	fromIAt []uint32  // fromIAt[k] == stamp: fromI[k] holds Ωc(i,k)
	fromI   []float64 // memoized adjacent closeness from the batch source
	totalAt []uint32  // totalAt[u] == stamp: total[u] holds Σ_k f(u,k)
	total   []float64 // memoized interaction totals

	cur, next []NodeID  // BFS frontiers, swapped per level
	common    []NodeID  // common friends of the source and one ratee
	vals      []float64 // ProfileCloseness per-peer values
}

func newBFSScratch(n int) *bfsScratch {
	return &bfsScratch{
		seen:    make([]uint32, n),
		parent:  make([]NodeID, n),
		target:  make([]uint32, n),
		fromIAt: make([]uint32, n),
		fromI:   make([]float64, n),
		totalAt: make([]uint32, n),
		total:   make([]float64, n),
	}
}

// getScratch draws a pooled scratch and opens a new stamp on it. Callers
// return it with g.scratch.Put.
func (g *Graph) getScratch() *bfsScratch {
	s := g.scratch.Get().(*bfsScratch)
	s.open()
	return s
}

// open starts a new stamp, invalidating every per-node entry at once.
func (s *bfsScratch) open() {
	s.stamp++
	if s.stamp == 0 { // wrapped: stale stamps could collide, so clear them
		clear(s.seen)
		clear(s.target)
		clear(s.fromIAt)
		clear(s.totalAt)
		s.stamp = 1
	}
}

// bfs runs a breadth-first search from src over at most maxHops levels,
// expanding each frontier node's neighbors in ascending ID order, and stops
// as soon as all pending targets (marked in s.target) are discovered.
// Discovery order alone fixes each node's parent, and stopping early never
// revisits a discovered node, so every parent it sets is the one a full
// bounded BFS would set. Callers hold the read lock.
func (g *Graph) bfs(s *bfsScratch, src NodeID, maxHops, pending int) {
	st := s.stamp
	s.seen[src] = st
	s.parent[src] = src
	cur, next := append(s.cur[:0], src), s.next[:0]
	visited, early := 1, false
	for depth := 0; len(cur) > 0 && depth < maxHops && !early; depth++ {
		last := depth+1 == maxHops // the next frontier would never expand
		next = next[:0]
	level:
		for _, u := range cur {
			for _, e := range g.adj[u] {
				v := e.id
				if s.seen[v] == st {
					continue
				}
				s.seen[v] = st
				s.parent[v] = u
				visited++
				if s.target[v] == st {
					if pending--; pending == 0 {
						early = true
						break level
					}
				}
				if !last {
					next = append(next, v)
				}
			}
		}
		cur, next = next, cur
	}
	s.cur, s.next = cur[:0], next[:0]
	mBFSRuns.Inc()
	mBFSVisited.Add(int64(visited))
	if early {
		mBFSEarlyExits.Inc()
	}
}

// closenessBatch evaluates Equation 4 for one source node against a pooled
// scratch; callers hold the topology read lock for its whole lifetime.
type closenessBatch struct {
	g *Graph
	s *bfsScratch
	i NodeID
	p ClosenessParams
}

// direct evaluates Ωc(i, j) when j is i, a friend of i, or shares a friend
// with i. Otherwise it reports needPath: the value is the minimum along
// the BFS tree path to j.
func (b *closenessBatch) direct(j NodeID) (v float64, needPath bool) {
	g, i := b.g, b.i
	if i == j {
		return 0, false
	}
	if g.adjacentLocked(i, j) {
		return b.adjFromI(j), false
	}
	s := b.s
	s.common = g.commonFriendsLocked(i, j, s.common[:0])
	if len(s.common) == 0 {
		return 0, true
	}
	sum := 0.0
	for _, k := range s.common { // ascending ID order
		sum += (b.adjFromI(k) + b.adjClose(k, j)) / 2
	}
	return sum, false
}

// pathMin is the path case of Equation 4: the minimum adjacent closeness
// along the BFS tree path from i to j, or 0 when j lies beyond the hop
// cutoff.
func (b *closenessBatch) pathMin(j NodeID) float64 {
	s := b.s
	if s.seen[j] != s.stamp {
		return 0
	}
	min := -1.0
	for cur := j; cur != b.i; {
		par := s.parent[cur]
		c := b.adjClose(par, cur)
		if min < 0 || c < min {
			min = c
		}
		cur = par
	}
	if min < 0 {
		return 0
	}
	return min
}

// adjFromI memoizes the adjacent closeness from the batch source i.
func (b *closenessBatch) adjFromI(k NodeID) float64 {
	s := b.s
	if s.fromIAt[k] == s.stamp {
		return s.fromI[k]
	}
	v := b.adjClose(b.i, k)
	s.fromIAt[k], s.fromI[k] = s.stamp, v
	return v
}

// adjClose evaluates the adjacent case of Equation 2 / Equation 10 with the
// per-source interaction total memoized for the batch. Interaction reads go
// through the striped row locks, not g.mu.
func (b *closenessBatch) adjClose(u, v NodeID) float64 {
	g, p, s := b.g, b.p, b.s
	strength := g.relationshipStrengthLocked(u, v, p.Weighted, p.Lambda)
	if strength == 0 {
		return 0
	}
	if s.totalAt[u] != s.stamp {
		s.totalAt[u], s.total[u] = s.stamp, g.TotalInteractionsFrom(u)
	}
	total := s.total[u]
	if total == 0 {
		// No interactions recorded yet: assume uniform frequency over the
		// friend set so closeness reduces to strength/|S_u|.
		deg := len(g.adj[u])
		if deg == 0 {
			return 0
		}
		return strength / float64(deg)
	}
	return strength * g.InteractionFrequency(u, v) / total
}

// ClosenessProfile summarizes node i's closeness to a set of peers it has
// rated — the (mean, min, max) triple the Gaussian filter of Equation 6
// centers on.
type ClosenessProfile struct {
	Mean, Min, Max float64
	N              int
}

// ProfileCloseness computes the ClosenessProfile of node i over peers.
// An empty peer set yields a zero profile. It runs one closeness batch over
// the peer set and folds the values in peer order.
func (g *Graph) ProfileCloseness(i NodeID, peers []NodeID, p ClosenessParams) ClosenessProfile {
	g.validate(i)
	g.validate(peers...)
	s := g.getScratch()
	defer g.scratch.Put(s)
	s.vals = slices.Grow(s.vals[:0], len(peers))[:len(peers)]
	g.closenessInto(s, i, peers, p, s.vals)
	var prof ClosenessProfile
	for idx, c := range s.vals {
		if idx == 0 {
			prof.Min, prof.Max = c, c
		} else {
			if c < prof.Min {
				prof.Min = c
			}
			if c > prof.Max {
				prof.Max = c
			}
		}
		prof.Mean += c
		prof.N++
	}
	if prof.N > 0 {
		prof.Mean /= float64(prof.N)
	}
	return prof
}
