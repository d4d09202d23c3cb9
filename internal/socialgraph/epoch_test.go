package socialgraph

import (
	"sync"
	"testing"

	"socialtrust/internal/xrand"
)

// TestEpochBumpedByEveryMutator pins the cache-invalidation contract: each
// mutator advances the epoch, reads never do.
func TestEpochBumpedByEveryMutator(t *testing.T) {
	g := New(4)
	e0 := g.Epoch()

	g.AddRelationship(0, 1, Relationship{Kind: Friendship})
	if g.Epoch() <= e0 {
		t.Fatal("AddRelationship did not bump the epoch")
	}
	e1 := g.Epoch()

	g.RecordInteraction(0, 1, 1)
	if g.Epoch() <= e1 {
		t.Fatal("RecordInteraction did not bump the epoch")
	}
	e2 := g.Epoch()

	g.RemoveNodeEdges(1)
	if g.Epoch() <= e2 {
		t.Fatal("RemoveNodeEdges did not bump the epoch")
	}
	e3 := g.Epoch()

	g.ResetInteractions()
	if g.Epoch() <= e3 {
		t.Fatal("ResetInteractions did not bump the epoch")
	}
	e4 := g.Epoch()

	// Pure reads leave the epoch unchanged.
	g.AddRelationship(0, 2, Relationship{Kind: Friendship})
	e5 := g.Epoch()
	_ = g.Adjacent(0, 2)
	_ = g.Friends(0)
	_ = g.Degree(0)
	_ = g.CommonFriends(0, 2)
	_ = g.Closeness(0, 2, DefaultClosenessParams())
	_ = g.ClosenessFrom(0, []NodeID{1, 2, 3}, DefaultClosenessParams())
	_ = g.Distance(0, 3, 4)
	_ = g.InteractionFrequency(0, 1)
	_ = g.TotalInteractionsFrom(0)
	if g.Epoch() != e5 {
		t.Fatalf("read path moved the epoch: %d -> %d", e5, g.Epoch())
	}
	if e4 >= e5 {
		t.Fatal("epoch is not monotonically increasing")
	}
}

// randomGraph builds a connected pseudo-random graph with interactions,
// sparse enough that all three closeness branches are exercised.
func randomGraph(n, extraDeg int) *Graph {
	g := New(n)
	rng := xrand.New(42)
	for i := 0; i < n; i++ {
		g.AddRelationship(NodeID(i), NodeID((i+1)%n), Relationship{Kind: Friendship})
		for k := 0; k < extraDeg; k++ {
			j := rng.Intn(n)
			if j != i && !g.Adjacent(NodeID(i), NodeID(j)) {
				kind := RelationshipKind(rng.Intn(int(numRelationshipKinds)))
				g.AddRelationship(NodeID(i), NodeID(j), Relationship{Kind: kind})
			}
		}
		for k := 0; k < 3; k++ {
			g.RecordInteraction(NodeID(i), NodeID(rng.Intn(n)), float64(rng.Intn(5)+1))
		}
	}
	return g
}

// TestConcurrentClosenessAndMutation hammers parallel closeness reads
// against topology and interaction mutation; run under -race it proves the
// RWMutex + striped-row locking discipline is sound.
func TestConcurrentClosenessAndMutation(t *testing.T) {
	const n = 80
	g := randomGraph(n, 2)
	p := DefaultClosenessParams()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := xrand.New(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := NodeID(rng.Intn(n))
				j := NodeID(rng.Intn(n))
				_ = g.Closeness(i, j, p)
				_ = g.ClosenessFrom(i, []NodeID{j, NodeID((int(j) + 1) % n)}, p)
				_ = g.ProfileCloseness(j, []NodeID{i, NodeID((int(i) + 2) % n)}, p)
				_ = g.ShortestPath(i, j, 0)
				_ = g.Epoch()
			}
		}(uint64(w + 1))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := xrand.New(99)
		for k := 0; k < 500; k++ {
			i := NodeID(rng.Intn(n))
			j := NodeID(rng.Intn(n))
			if i != j {
				g.AddRelationship(i, j, Relationship{Kind: Friendship})
			}
			g.RecordInteraction(i, j, 1)
			if k%100 == 99 {
				g.RemoveNodeEdges(NodeID(rng.Intn(n)))
			}
		}
		close(stop)
	}()
	wg.Wait()
}
