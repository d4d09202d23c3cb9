package socialgraph

import "testing"

// TestClosenessFromAllocations pins the pooled kernel: on a warm graph a
// ClosenessFrom batch allocates only its result slice, with plain and
// weighted (Equation 10) strength alike.
func TestClosenessFromAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	const n = 10_000
	g := denseGraph(n)
	for k := 0; k < 50; k++ { // a few multi-relationship edges for Equation 10
		g.AddRelationship(NodeID(k), NodeID(k+1), Relationship{Kind: Kinship})
		g.AddRelationship(NodeID(k), NodeID(k+1), Relationship{Kind: Colleague, Weight: 0.9})
	}
	ratees := []NodeID{1, 2, 4999, 9999, 77, 2}
	for _, weighted := range []bool{false, true} {
		p := DefaultClosenessParams()
		p.MaxPathHops = 3
		p.Weighted = weighted
		g.ClosenessFrom(0, ratees, p) // warm the pool and the frontier buffers
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			g.ClosenessFrom(NodeID(i%50), ratees, p)
			i++
		})
		if allocs != 1 {
			t.Errorf("weighted=%v: ClosenessFrom allocates %.1f/op, want 1 (the result slice)", weighted, allocs)
		}
	}
}
