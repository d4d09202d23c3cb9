package socialgraph

import (
	"testing"

	"socialtrust/internal/xrand"
)

// benchGraph builds a 500-node small-world graph with interactions.
func benchGraph() *Graph {
	g := New(500)
	rng := xrand.New(1)
	for i := 0; i < 500; i++ {
		g.AddRelationship(NodeID(i), NodeID((i+1)%500), Relationship{Kind: Friendship})
		for k := 0; k < 4; k++ {
			j := rng.Intn(500)
			if j != i && !g.Adjacent(NodeID(i), NodeID(j)) {
				g.AddRelationship(NodeID(i), NodeID(j), Relationship{Kind: Friendship})
			}
		}
		g.RecordInteraction(NodeID(i), NodeID((i+1)%500), float64(rng.Intn(5)+1))
	}
	return g
}

func BenchmarkClosenessAdjacent(b *testing.B) {
	g := benchGraph()
	p := DefaultClosenessParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Closeness(NodeID(i%500), NodeID((i+1)%500), p)
	}
}

func BenchmarkClosenessNonAdjacent(b *testing.B) {
	g := benchGraph()
	p := DefaultClosenessParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Closeness(NodeID(i%500), NodeID((i+250)%500), p)
	}
}

func BenchmarkShortestPath(b *testing.B) {
	g := benchGraph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestPath(NodeID(i%500), NodeID((i+137)%500), 6)
	}
}

// BenchmarkClosenessFrom measures the batched single-source path: one rater
// against 64 spread-out ratees, sharing one BFS tree and memoized adjacent
// closenesses across the whole batch.
func BenchmarkClosenessFrom(b *testing.B) {
	g := benchGraph()
	p := DefaultClosenessParams()
	ratees := make([]NodeID, 64)
	for k := range ratees {
		ratees[k] = NodeID((k*7 + 3) % 500)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ClosenessFrom(NodeID(i%500), ratees, p)
	}
}

// BenchmarkClosenessPerPair is the same workload as BenchmarkClosenessFrom
// issued as 64 one-ratee Closeness calls, each its own batch and BFS — the
// cost of not grouping a rater's pairs.
func BenchmarkClosenessPerPair(b *testing.B) {
	g := benchGraph()
	p := DefaultClosenessParams()
	ratees := make([]NodeID, 64)
	for k := range ratees {
		ratees[k] = NodeID((k*7 + 3) % 500)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range ratees {
			g.Closeness(NodeID(i%500), j, p)
		}
	}
}

// denseGraph mirrors the social graph of the pipeline benchmark's
// dense-fresh workload: n nodes each growing six random friendships, plus
// a few interactions per node.
func denseGraph(n int) *Graph {
	g := New(n)
	rng := xrand.New(1)
	for i := 0; i < n; i++ {
		for d := 0; d < 6; d++ {
			if j := rng.Intn(n); j != i {
				g.AddRelationship(NodeID(i), NodeID(j), Relationship{Kind: Friendship})
			}
		}
	}
	for i := 0; i < n; i++ {
		for k := 0; k < 2; k++ {
			g.RecordInteraction(NodeID(i), NodeID(rng.Intn(n)), float64(1+rng.Intn(5)))
		}
	}
	return g
}

// BenchmarkClosenessFromDense10k is the closeness kernel as the dense-fresh
// pipeline workload drives it: a 10k-node graph, a 3-hop cutoff and four
// random ratees per rater, so nearly every ratee takes the BFS path case.
func BenchmarkClosenessFromDense10k(b *testing.B) {
	const n = 10_000
	g := denseGraph(n)
	p := DefaultClosenessParams()
	p.MaxPathHops = 3
	rng := xrand.New(2)
	ratees := make([][]NodeID, 1024)
	for k := range ratees {
		ratees[k] = []NodeID{NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ClosenessFrom(NodeID(i%n), ratees[i%len(ratees)], p)
	}
}
