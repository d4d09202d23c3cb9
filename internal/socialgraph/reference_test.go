package socialgraph

import (
	"math"
	"sort"
	"testing"

	"socialtrust/internal/xrand"
)

// refGraph is the reference oracle for Ωc and shortest paths: a verbatim
// port of the map-adjacency, per-pair closenessLocked/shortestPathLocked
// that the sorted-adjacency batch kernel replaced. It copies the topology
// out of a Graph through the public API and reads interactions from it, so
// the two share no adjacency code. The batch kernel must reproduce its
// results bit for bit.
type refGraph struct {
	g   *Graph
	adj []map[NodeID]*refEdge
}

type refEdge struct {
	rels []Relationship
}

func newRefGraph(g *Graph) *refGraph {
	r := &refGraph{g: g, adj: make([]map[NodeID]*refEdge, g.NumNodes())}
	for i := 0; i < g.NumNodes(); i++ {
		for _, j := range g.Friends(NodeID(i)) {
			if r.adj[i] == nil {
				r.adj[i] = make(map[NodeID]*refEdge)
			}
			r.adj[i][j] = &refEdge{rels: g.Relationships(NodeID(i), j)}
		}
	}
	return r
}

func (g *refGraph) adjacentLocked(i, j NodeID) bool {
	_, ok := g.adj[i][j]
	return ok
}

func (g *refGraph) relationshipStrengthLocked(i, j NodeID, weighted bool, lambda float64) float64 {
	e, ok := g.adj[i][j]
	if !ok {
		return 0
	}
	if !weighted {
		return float64(len(e.rels))
	}
	ws := make([]float64, len(e.rels))
	for k, r := range e.rels {
		ws[k] = r.weight()
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ws)))
	sum, scale := 0.0, 1.0
	for _, w := range ws {
		sum += scale * w
		scale *= lambda
	}
	return sum
}

func (g *refGraph) friendsLocked(i NodeID, buf []NodeID) []NodeID {
	start := len(buf)
	for j := range g.adj[i] {
		buf = append(buf, j)
	}
	out := buf[start:]
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return buf
}

func (g *refGraph) commonFriendsLocked(i, j NodeID, buf []NodeID) []NodeID {
	small, large := g.adj[i], g.adj[j]
	if len(large) < len(small) {
		small, large = large, small
	}
	start := len(buf)
	for k := range small {
		if _, ok := large[k]; ok {
			buf = append(buf, k)
		}
	}
	out := buf[start:]
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return buf
}

func (g *refGraph) shortestPathLocked(i, j NodeID, maxHops int) []NodeID {
	if i == j {
		return []NodeID{i}
	}
	prev := make(map[NodeID]NodeID, 64)
	prev[i] = i
	frontier := []NodeID{i}
	depth := 0
	var scratch []NodeID
	for len(frontier) > 0 {
		if maxHops > 0 && depth >= maxHops {
			return nil
		}
		depth++
		var next []NodeID
		for _, u := range frontier {
			// Expand neighbors in ID order so the returned path (and any
			// closeness derived from it) is deterministic rather than
			// map-iteration dependent.
			scratch = g.friendsLocked(u, scratch[:0])
			for _, v := range scratch {
				if _, seen := prev[v]; seen {
					continue
				}
				prev[v] = u
				if v == j {
					// Reconstruct the path back to i.
					path := []NodeID{j}
					for cur := j; cur != i; {
						cur = prev[cur]
						path = append(path, cur)
					}
					for a, b := 0, len(path)-1; a < b; a, b = a+1, b-1 {
						path[a], path[b] = path[b], path[a]
					}
					return path
				}
				next = append(next, v)
			}
		}
		frontier = next
	}
	return nil
}

func (g *refGraph) closenessLocked(i, j NodeID, p ClosenessParams) float64 {
	if i == j {
		return 0
	}
	if g.adjacentLocked(i, j) {
		return g.adjacentClosenessLocked(i, j, p)
	}
	common := g.commonFriendsLocked(i, j, nil)
	if len(common) > 0 {
		sum := 0.0
		for _, k := range common {
			sum += (g.adjacentClosenessLocked(i, k, p) + g.adjacentClosenessLocked(k, j, p)) / 2
		}
		return sum
	}
	path := g.shortestPathLocked(i, j, p.maxHops())
	if path == nil {
		return 0
	}
	min := -1.0
	for h := 0; h+1 < len(path); h++ {
		c := g.adjacentClosenessLocked(path[h], path[h+1], p)
		if min < 0 || c < min {
			min = c
		}
	}
	if min < 0 {
		return 0
	}
	return min
}

func (g *refGraph) adjacentClosenessLocked(i, j NodeID, p ClosenessParams) float64 {
	strength := g.relationshipStrengthLocked(i, j, p.Weighted, p.Lambda)
	if strength == 0 {
		return 0
	}
	total := g.g.TotalInteractionsFrom(i)
	if total == 0 {
		deg := len(g.adj[i])
		if deg == 0 {
			return 0
		}
		return strength / float64(deg)
	}
	return strength * g.g.InteractionFrequency(i, j) / total
}

// randomMultigraph builds a seeded graph mixing every closeness case:
// components of varying density (so some ratees sit beyond the hop cutoff
// or in another component), edges carrying one to six relationships of
// random kinds and weights, optionally integer-valued interactions (integer
// weights keep Σ_k f(i,k) exact whatever order the interaction map is
// summed in), and optionally a few departed nodes.
func randomMultigraph(seed uint64, n int, interactions, removals bool) *Graph {
	g := New(n)
	rng := xrand.New(seed)
	for e := 0; e < 2*n+rng.Intn(2*n); e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j || (i < n/2) != (j < n/2) && rng.Intn(4) != 0 {
			continue // two loosely joined halves: long and missing paths
		}
		for r := 1 + rng.Intn(6); r > 0; r-- {
			rel := Relationship{Kind: RelationshipKind(rng.Intn(int(numRelationshipKinds)))}
			if rng.Intn(3) == 0 {
				rel.Weight = float64(1+rng.Intn(100)) / 100
			}
			g.AddRelationship(NodeID(i), NodeID(j), rel)
		}
	}
	if interactions {
		// Mostly with friends, so most adjacent closenesses (and path
		// minima) are non-zero, plus some with strangers.
		for k := 0; k < 6*n; k++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if fs := g.Friends(u); len(fs) > 0 && rng.Intn(4) != 0 {
				v = fs[rng.Intn(len(fs))]
			}
			g.RecordInteraction(u, v, float64(1+rng.Intn(5)))
		}
	}
	if removals {
		for k := 0; k < n/20+1; k++ {
			g.RemoveNodeEdges(NodeID(rng.Intn(n)))
		}
	}
	return g
}

// closenessCases enumerates the property test's graph variants.
func closenessCases(t *testing.T, fn func(t *testing.T, g *Graph, ref *refGraph, p ClosenessParams, rng *xrand.Stream)) {
	for seed := uint64(1); seed <= 4; seed++ {
		for _, weighted := range []bool{false, true} {
			for _, interactions := range []bool{false, true} {
				for _, removals := range []bool{false, true} {
					n := 40 + int(seed)*30
					g := randomMultigraph(seed, n, interactions, removals)
					p := DefaultClosenessParams()
					p.Weighted = weighted
					p.MaxPathHops = 3 + int(seed)%3 // 3..5: some ratees fall beyond it
					rng := xrand.New(seed * 977)
					fn(t, g, newRefGraph(g), p, rng)
				}
			}
		}
	}
}

// rateeSet draws a ratee list for rater i with duplicates and i itself.
func rateeSet(rng *xrand.Stream, n int, i NodeID) []NodeID {
	ratees := make([]NodeID, 1+rng.Intn(12))
	for k := range ratees {
		ratees[k] = NodeID(rng.Intn(n))
	}
	switch rng.Intn(3) {
	case 0:
		ratees = append(ratees, i)
	case 1:
		ratees = append(ratees, ratees[0])
	}
	return ratees
}

// TestClosenessFromMatchesPerPair asserts the batched single-source path
// (and the one-ratee Closeness built on it) is bit-identical to the
// map-based per-pair oracle across seeded random multigraphs: all three
// branch kinds, plain and weighted (Equation 10) strength, with and without
// recorded interactions, after RemoveNodeEdges, with duplicate ratees, the
// rater among its ratees, and ratees beyond MaxPathHops.
func TestClosenessFromMatchesPerPair(t *testing.T) {
	beyond := 0
	closenessCases(t, func(t *testing.T, g *Graph, ref *refGraph, p ClosenessParams, rng *xrand.Stream) {
		n := g.NumNodes()
		for i := 0; i < n; i++ {
			ratees := rateeSet(rng, n, NodeID(i))
			got := g.ClosenessFrom(NodeID(i), ratees, p)
			for k, j := range ratees {
				want := ref.closenessLocked(NodeID(i), j, p)
				if got[k] != want { // bit-identical, no tolerance
					t.Fatalf("p=%+v ClosenessFrom(%d)[%d→%d] = %v, oracle = %v (diff %g)",
						p, i, i, j, got[k], want, math.Abs(got[k]-want))
				}
				if one := g.Closeness(NodeID(i), j, p); one != want {
					t.Fatalf("p=%+v Closeness(%d,%d) = %v, oracle = %v", p, i, j, one, want)
				}
				if ref.shortestPathLocked(NodeID(i), j, p.maxHops()) == nil && ref.shortestPathLocked(NodeID(i), j, 0) != nil {
					beyond++
				}
			}
		}
	})
	if beyond == 0 {
		t.Fatal("no ratee fell beyond MaxPathHops; the cases do not cover the cutoff")
	}
}

// TestProfileClosenessMatchesPerPair pins that the batched ProfileCloseness
// folds exactly the oracle's per-pair closeness values, in peer order.
func TestProfileClosenessMatchesPerPair(t *testing.T) {
	closenessCases(t, func(t *testing.T, g *Graph, ref *refGraph, p ClosenessParams, rng *xrand.Stream) {
		n := g.NumNodes()
		for i := 0; i < n; i += 3 {
			peers := rateeSet(rng, n, NodeID(i))
			prof := g.ProfileCloseness(NodeID(i), peers, p)
			var mean, min, max float64
			for idx, j := range peers {
				c := ref.closenessLocked(NodeID(i), j, p)
				if idx == 0 {
					min, max = c, c
				} else {
					if c < min {
						min = c
					}
					if c > max {
						max = c
					}
				}
				mean += c
			}
			mean /= float64(len(peers))
			if prof.Mean != mean || prof.Min != min || prof.Max != max || prof.N != len(peers) {
				t.Fatalf("ProfileCloseness(%d) = %+v, want mean=%v min=%v max=%v n=%d", i, prof, mean, min, max, len(peers))
			}
		}
	})
}

// TestShortestPathMatchesReference pins ShortestPath and Distance against
// the oracle's per-pair BFS, with bounded and unbounded hops.
func TestShortestPathMatchesReference(t *testing.T) {
	closenessCases(t, func(t *testing.T, g *Graph, ref *refGraph, p ClosenessParams, rng *xrand.Stream) {
		n := g.NumNodes()
		for k := 0; k < 4*n; k++ {
			i, j := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			for _, hops := range []int{0, 1, p.maxHops()} {
				want := ref.shortestPathLocked(i, j, hops)
				got := g.ShortestPath(i, j, hops)
				if len(got) != len(want) {
					t.Fatalf("ShortestPath(%d,%d,%d) = %v, oracle %v", i, j, hops, got, want)
				}
				for h := range want {
					if got[h] != want[h] {
						t.Fatalf("ShortestPath(%d,%d,%d) = %v, oracle %v", i, j, hops, got, want)
					}
				}
				wantD := NoPath
				if want != nil {
					wantD = len(want) - 1
				}
				if d := g.Distance(i, j, hops); d != wantD {
					t.Fatalf("Distance(%d,%d,%d) = %d, oracle %d", i, j, hops, d, wantD)
				}
			}
		}
	})
}

// TestScratchStampWrap pins that a scratch whose stamp wraps clears its
// stale marks: entries stamped 1 before the wrap must not read as current
// afterwards.
func TestScratchStampWrap(t *testing.T) {
	g := randomMultigraph(7, 120, true, false)
	ref := newRefGraph(g)
	p := DefaultClosenessParams()
	p.MaxPathHops = 3
	s := newBFSScratch(g.NumNodes())
	for _, a := range [][]uint32{s.seen, s.target, s.fromIAt, s.totalAt} {
		for v := range a {
			a[v] = 1
		}
	}
	s.stamp = math.MaxUint32
	s.open()
	if s.stamp != 1 {
		t.Fatalf("stamp after wrap = %d, want 1", s.stamp)
	}
	ratees := []NodeID{3, 50, 99, 119, 7}
	out := make([]float64, len(ratees))
	g.closenessInto(s, 7, ratees, p, out)
	for k, j := range ratees {
		if want := ref.closenessLocked(7, j, p); out[k] != want {
			t.Fatalf("after stamp wrap Ωc(7,%d) = %v, oracle %v", j, out[k], want)
		}
	}
}
