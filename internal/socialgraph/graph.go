// Package socialgraph implements the social-network substrate SocialTrust
// consumes: an undirected friendship multigraph with typed, weighted
// relationships, a directed interaction-frequency table, breadth-first
// social distance, common-friend queries, and the social-closeness metric
// Ωc of the paper (Equations 2, 3, 4, and the falsification-resistant
// weighted form, Equation 10).
package socialgraph

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// NodeID identifies a peer in the social network. IDs are dense indices in
// [0, NumNodes) so the graph can use slice-backed adjacency.
type NodeID int

// RelationshipKind is the type of a social relationship between two peers.
// The paper's Equation 10 weights relationship kinds differently (e.g.
// kinship counts more than an online friendship).
type RelationshipKind int

// Relationship kinds ordered roughly by social strength. The associated
// default weights are exposed via DefaultWeight.
const (
	Friendship RelationshipKind = iota
	Classmate
	Colleague
	Kinship
	numRelationshipKinds
)

// String implements fmt.Stringer for diagnostics.
func (k RelationshipKind) String() string {
	switch k {
	case Friendship:
		return "friendship"
	case Classmate:
		return "classmate"
	case Colleague:
		return "colleague"
	case Kinship:
		return "kinship"
	default:
		return fmt.Sprintf("RelationshipKind(%d)", int(k))
	}
}

// DefaultWeight returns the default closeness weight w_d of a relationship
// kind used by Equation 10. Weights are in (0,1] and kinship is strongest.
func (k RelationshipKind) DefaultWeight() float64 {
	switch k {
	case Kinship:
		return 1.0
	case Colleague:
		return 0.8
	case Classmate:
		return 0.7
	case Friendship:
		return 0.6
	default:
		return 0.5
	}
}

// Relationship is a single typed social tie on an edge. An edge carries one
// or more relationships; the paper assigns [1,2] relationships to normal
// pairs and [3,5] to colluding pairs in its experiments.
type Relationship struct {
	Kind   RelationshipKind
	Weight float64 // in (0,1]; zero means "use Kind.DefaultWeight()"
}

// weight resolves the effective weight of the relationship.
func (r Relationship) weight() float64 {
	if r.Weight > 0 {
		return r.Weight
	}
	return r.Kind.DefaultWeight()
}

// edge is one half of an undirected friendship: the neighbor and the
// relationship list of the pair. Each endpoint holds its own half with an
// identical relationship list.
type edge struct {
	id   NodeID
	rels []Relationship
}

// Graph is an undirected social multigraph plus a directed interaction
// table. Each node's adjacency is a slice of edges sorted by neighbor ID, so
// lookups are binary searches, neighbor lists come out in ID order without
// sorting, and common friends are a merge of two sorted lists. Topology is
// guarded by an RWMutex so concurrent closeness/BFS queries proceed in
// parallel and only topology mutation (AddRelationship/RemoveNodeEdges)
// takes the exclusive lock. Interaction
// recording uses per-source striped locks, because the simulator records
// interactions from many client goroutines while queries run.
//
// Every mutator — AddRelationship, RecordInteraction, RemoveNodeEdges,
// ResetInteractions — bumps a monotonically increasing epoch counter
// (Epoch). Any value derived purely from graph state (closeness, profiles)
// is valid for as long as the epoch is unchanged, which is the invalidation
// contract the core package's signal cache is built on.
//
// Mutators additionally record which nodes they touched in a bounded touch
// log (TouchedSince), so consumers can invalidate derived state in
// proportion to the mutation — every node whose closeness could have
// changed lies within the path-hop radius of a touched node (WithinHops) —
// instead of discarding everything on any epoch movement.
type Graph struct {
	mu    sync.RWMutex // guards adj
	epoch atomic.Uint64

	n   int
	adj [][]edge // adj[i] sorted by edge.id

	scratch sync.Pool // *bfsScratch for closeness batches and path queries

	interactions []interactionRow

	// touchMu guards the touch log and serializes epoch advancement with
	// log appends, so a reader that observes epoch e always finds every
	// touch with epoch <= e already in the log.
	touchMu    sync.Mutex
	touchLog   []touchRec
	touchFloor uint64 // TouchedSince is answerable only for since >= touchFloor
}

// touchRec is one touch-log entry: the node whose adjacency or outgoing
// interaction row changed, and the epoch the mutation advanced to. Entries
// are epoch-ascending.
type touchRec struct {
	epoch uint64
	node  NodeID
}

// maxTouchLog bounds the touch log. On overflow the log is cleared and the
// floor raised to the current epoch: consumers that synced before the floor
// get a full-invalidation signal (TouchedSince ok=false), exactly the
// pre-touch-log behavior.
const maxTouchLog = 1 << 17

type interactionRow struct {
	mu     sync.Mutex
	counts map[NodeID]float64
}

// New creates a graph with n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("socialgraph: negative node count")
	}
	g := &Graph{
		n:            n,
		adj:          make([][]edge, n),
		interactions: make([]interactionRow, n),
	}
	g.scratch.New = func() any { return newBFSScratch(n) }
	return g
}

// NumNodes reports the number of nodes in the graph.
func (g *Graph) NumNodes() int { return g.n }

// Epoch returns the graph's version counter. It increases on every mutation
// (topology or interaction); two reads observing the same epoch bracket a
// window in which every derived quantity was stable.
func (g *Graph) Epoch() uint64 { return g.epoch.Load() }

// bumpTouched advances the epoch after a mutation and records the nodes it
// touched: every node whose adjacency set or outgoing interaction row
// changed. The touch is appended before the new epoch becomes visible, so
// TouchedSince(e) run against any observed epoch e is complete.
func (g *Graph) bumpTouched(nodes ...NodeID) {
	g.touchMu.Lock()
	e := g.epoch.Load() + 1
	for _, nd := range nodes {
		// Collapse consecutive touches of the same node (the per-rating
		// interaction pattern) by raising the entry's epoch: any consumer
		// that missed the earlier touch still sees the raised one.
		if last := len(g.touchLog) - 1; last >= 0 && g.touchLog[last].node == nd {
			g.touchLog[last].epoch = e
			continue
		}
		g.touchLog = append(g.touchLog, touchRec{epoch: e, node: nd})
	}
	if len(g.touchLog) > maxTouchLog {
		g.touchLog = g.touchLog[:0]
		g.touchFloor = e
	}
	g.epoch.Store(e)
	g.touchMu.Unlock()
}

// bumpAll advances the epoch for a mutation with global reach (e.g.
// ResetInteractions): the log is cleared and the floor raised so every
// consumer falls back to full invalidation.
func (g *Graph) bumpAll() {
	g.touchMu.Lock()
	e := g.epoch.Load() + 1
	g.touchLog = g.touchLog[:0]
	g.touchFloor = e
	g.epoch.Store(e)
	g.touchMu.Unlock()
}

// TouchedSince appends to buf the nodes touched by mutations with epoch in
// (since, Epoch()] and reports whether the touch log reaches back that far.
// ok == false (overflow, or a global mutation such as ResetInteractions)
// means the caller must invalidate everything derived from the graph. The
// returned list may contain duplicates.
func (g *Graph) TouchedSince(since uint64, buf []NodeID) ([]NodeID, bool) {
	g.touchMu.Lock()
	defer g.touchMu.Unlock()
	if since < g.touchFloor {
		return buf, false
	}
	// Entries are epoch-ascending: binary-search the first one past since.
	lo, hi := 0, len(g.touchLog)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.touchLog[mid].epoch > since {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	for _, r := range g.touchLog[lo:] {
		buf = append(buf, r.node)
	}
	return buf, true
}

// WithinHops appends to out every node within hops friendship hops of any
// source (the sources themselves included) and returns the extended slice.
// seen must be a caller-owned scratch slice of length NumNodes with every
// element false; the marks set during the walk are cleared before
// returning. The output order is unspecified (treat it as a set).
//
// This is the invalidation footprint query: closeness Ωc(i, ·) only ever
// reads node i itself, common friends of i (distance 1), and nodes on
// BFS paths from i (distance <= MaxHops), so any mutation's effect on
// Ωc(i, ·) requires i to lie within the closeness hop radius of a node the
// mutation touched.
func (g *Graph) WithinHops(sources []NodeID, hops int, seen []bool, out []NodeID) []NodeID {
	g.validate(sources...)
	g.mu.RLock()
	start := len(out)
	for _, s := range sources {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	frontierStart := start
	for d := 0; d < hops; d++ {
		frontierEnd := len(out)
		if frontierStart == frontierEnd {
			break
		}
		for idx := frontierStart; idx < frontierEnd; idx++ {
			for _, e := range g.adj[out[idx]] {
				if v := e.id; !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
		frontierStart = frontierEnd
	}
	g.mu.RUnlock()
	for _, v := range out[start:] {
		seen[v] = false
	}
	return out
}

// validate panics on out-of-range IDs; topology construction errors are
// programming errors in experiment setup, not runtime conditions.
func (g *Graph) validate(ids ...NodeID) {
	for _, id := range ids {
		if id < 0 || int(id) >= g.n {
			panic(fmt.Sprintf("socialgraph: node %d out of range [0,%d)", id, g.n))
		}
	}
}

// AddRelationship adds one typed relationship between i and j, creating the
// friendship edge if absent. Adding multiple relationships to the same pair
// raises m(i,j), the relationship multiplicity of Equation 2.
func (g *Graph) AddRelationship(i, j NodeID, r Relationship) {
	g.validate(i, j)
	if i == j {
		panic("socialgraph: self relationship")
	}
	g.mu.Lock()
	g.addHalf(i, j, r)
	g.addHalf(j, i, r)
	g.mu.Unlock()
	g.bumpTouched(i, j)
}

func (g *Graph) addHalf(i, j NodeID, r Relationship) {
	k, ok := g.find(i, j)
	if ok {
		g.adj[i][k].rels = append(g.adj[i][k].rels, r)
		return
	}
	g.adj[i] = slices.Insert(g.adj[i], k, edge{id: j, rels: []Relationship{r}})
}

// find binary-searches i's adjacency for neighbor j. It returns j's index
// when present, or the index at which j would be inserted; callers hold at
// least the read lock.
func (g *Graph) find(i, j NodeID) (int, bool) {
	es := g.adj[i]
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if es[mid].id < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(es) && es[lo].id == j
}

// edgeLocked returns the relationship list between i and j, or nil when
// they are not adjacent; callers hold at least the read lock.
func (g *Graph) edgeLocked(i, j NodeID) []Relationship {
	if k, ok := g.find(i, j); ok {
		return g.adj[i][k].rels
	}
	return nil
}

// Adjacent reports whether i and j share a friendship edge.
func (g *Graph) Adjacent(i, j NodeID) bool {
	g.validate(i, j)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.adjacentLocked(i, j)
}

func (g *Graph) adjacentLocked(i, j NodeID) bool {
	_, ok := g.find(i, j)
	return ok
}

// RelationshipCount returns m(i,j), the number of relationships between
// adjacent nodes (0 when not adjacent).
func (g *Graph) RelationshipCount(i, j NodeID) int {
	g.validate(i, j)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.edgeLocked(i, j))
}

// Relationships returns a copy of the relationship list between i and j.
func (g *Graph) Relationships(i, j NodeID) []Relationship {
	g.validate(i, j)
	g.mu.RLock()
	defer g.mu.RUnlock()
	rels := g.edgeLocked(i, j)
	if rels == nil {
		return nil
	}
	return append([]Relationship(nil), rels...)
}

// relationshipStrengthLocked evaluates the relationship term of the
// closeness formula; callers hold at least the read lock. With
// weighted=false it is the plain multiplicity m(i,j) (Equation 2). With
// weighted=true it is Σ_l λ^(l−1)·w_dl over the relationship list sorted by
// descending weight (Equation 10), which damps the marginal value of piling
// on extra weak relationships — the falsification counterattack of
// Section 4.4.
func (g *Graph) relationshipStrengthLocked(i, j NodeID, weighted bool, lambda float64) float64 {
	rels := g.edgeLocked(i, j)
	if !weighted {
		return float64(len(rels))
	}
	// A pair carries a handful of relationships; sort their weights on the
	// stack unless the list is unusually long.
	var buf [8]float64
	ws := buf[:0]
	if len(rels) > len(buf) {
		ws = make([]float64, 0, len(rels))
	}
	for _, r := range rels {
		ws = append(ws, r.weight())
	}
	slices.Sort(ws)
	sum, scale := 0.0, 1.0
	for k := len(ws) - 1; k >= 0; k-- { // descending weight
		sum += scale * ws[k]
		scale *= lambda
	}
	return sum
}

// Friends returns the neighbor set S_i of node i in ascending order.
func (g *Graph) Friends(i NodeID) []NodeID {
	g.validate(i)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.friendsLocked(i, nil)
}

// friendsLocked appends i's neighbors in ascending order to buf (which may
// be nil) and returns the extended slice; callers hold the read lock.
func (g *Graph) friendsLocked(i NodeID, buf []NodeID) []NodeID {
	for _, e := range g.adj[i] {
		buf = append(buf, e.id)
	}
	return buf
}

// Degree returns |S_i|, the number of friends of i.
func (g *Graph) Degree(i NodeID) int {
	g.validate(i)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.adj[i])
}

// CommonFriends returns S_i ∩ S_j in ascending order.
func (g *Graph) CommonFriends(i, j NodeID) []NodeID {
	g.validate(i, j)
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.commonFriendsLocked(i, j, nil)
}

// commonFriendsLocked appends S_i ∩ S_j in ascending order to buf; callers
// hold the read lock.
func (g *Graph) commonFriendsLocked(i, j NodeID, buf []NodeID) []NodeID {
	a, b := g.adj[i], g.adj[j]
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].id < b[0].id:
			a = a[1:]
		case a[0].id > b[0].id:
			b = b[1:]
		default:
			buf = append(buf, a[0].id)
			a, b = a[1:], b[1:]
		}
	}
	return buf
}

// NoPath is returned by Distance when no path exists within the cutoff.
const NoPath = -1

// Distance returns the hop count of the shortest friendship path between i
// and j via breadth-first search, or NoPath if none exists within maxHops
// (maxHops <= 0 means unbounded). Distance(i,i) is 0.
func (g *Graph) Distance(i, j NodeID, maxHops int) int {
	g.validate(i, j)
	hops, _ := g.shortestPath(i, j, maxHops, false)
	return hops
}

// ShortestPath returns one shortest friendship path from i to j inclusive of
// both endpoints, or nil if none exists within maxHops (<= 0 for unbounded).
// Neighbors are expanded in ID order, so the path is deterministic: it is
// the same tree path the closeness batch walks for Equation 4.
func (g *Graph) ShortestPath(i, j NodeID, maxHops int) []NodeID {
	g.validate(i, j)
	_, path := g.shortestPath(i, j, maxHops, true)
	return path
}

// shortestPath runs a pooled BFS from i that stops once j is discovered and
// returns the hop count (NoPath when j is out of reach) and, with build set,
// the path itself.
func (g *Graph) shortestPath(i, j NodeID, maxHops int, build bool) (int, []NodeID) {
	if i == j {
		if build {
			return 0, []NodeID{i}
		}
		return 0, nil
	}
	if maxHops <= 0 {
		maxHops = g.n // a shortest path has fewer than n hops
	}
	s := g.getScratch()
	defer g.scratch.Put(s)
	g.mu.RLock()
	defer g.mu.RUnlock()
	s.target[j] = s.stamp
	g.bfs(s, i, maxHops, 1)
	if s.seen[j] != s.stamp {
		return NoPath, nil
	}
	hops := 0
	for cur := j; cur != i; cur = s.parent[cur] {
		hops++
	}
	if !build {
		return hops, nil
	}
	path := make([]NodeID, hops+1)
	for cur, k := j, hops; k >= 0; cur, k = s.parent[cur], k-1 {
		path[k] = cur
	}
	return hops, path
}

// RecordInteraction adds weight w to the directed interaction frequency
// f(i,j) — one resource request or rating event from i to j. Safe for
// concurrent use across distinct and identical sources.
func (g *Graph) RecordInteraction(i, j NodeID, w float64) {
	g.validate(i, j)
	row := &g.interactions[i]
	row.mu.Lock()
	if row.counts == nil {
		row.counts = make(map[NodeID]float64)
	}
	row.counts[j] += w
	row.mu.Unlock()
	g.bumpTouched(i) // only i's outgoing row — f(i,·) — changed
}

// InteractionFrequency returns f(i,j), the accumulated directed interaction
// weight from i to j.
func (g *Graph) InteractionFrequency(i, j NodeID) float64 {
	g.validate(i, j)
	row := &g.interactions[i]
	row.mu.Lock()
	defer row.mu.Unlock()
	return row.counts[j]
}

// TotalInteractionsFrom returns Σ_k f(i,k), the denominator of Equation 2.
func (g *Graph) TotalInteractionsFrom(i NodeID) float64 {
	g.validate(i)
	row := &g.interactions[i]
	row.mu.Lock()
	defer row.mu.Unlock()
	sum := 0.0
	for _, v := range row.counts {
		sum += v
	}
	return sum
}

// RemoveNodeEdges deletes every friendship edge incident to the node and
// clears its outgoing interaction history — the graph-side effect of a peer
// leaving the network (its ID slot can then be reused by a newcomer).
// Incoming interaction records from other nodes are preserved: other peers
// remember having interacted with the departed identity.
func (g *Graph) RemoveNodeEdges(i NodeID) {
	g.validate(i)
	g.mu.Lock()
	// Every former neighbor's adjacency set changes too: record them all so
	// affected-set queries against the post-removal topology (where the
	// removed edges no longer exist to walk) still reach every node whose
	// closeness depended on one of them.
	touched := make([]NodeID, 0, len(g.adj[i])+1)
	touched = append(touched, i)
	for _, e := range g.adj[i] {
		j := e.id
		if k, ok := g.find(j, i); ok {
			g.adj[j] = slices.Delete(g.adj[j], k, k+1)
		}
		touched = append(touched, j)
	}
	g.adj[i] = nil
	g.mu.Unlock()
	row := &g.interactions[i]
	row.mu.Lock()
	row.counts = nil
	row.mu.Unlock()
	g.bumpTouched(touched...)
}

// EdgeState is one undirected friendship edge (I < J) with its relationship
// list, as captured by ExportState.
type EdgeState struct {
	I, J NodeID
	Rels []Relationship
}

// State is the serializable form of a Graph: the full topology plus the
// directed interaction table. Epochs and touch logs are deliberately absent —
// they are invalidation bookkeeping for in-memory caches, which start cold
// after a restore anyway.
type State struct {
	NumNodes     int
	Edges        []EdgeState // sorted by (I, J), I < J
	Interactions []map[NodeID]float64
}

// ExportState deep-copies the graph's persistent content in canonical order.
func (g *Graph) ExportState() State {
	st := State{NumNodes: g.n, Interactions: make([]map[NodeID]float64, g.n)}
	g.mu.RLock()
	// Walking each sorted adjacency in node order emits edges by (I, J).
	for i, es := range g.adj {
		for _, e := range es {
			if NodeID(i) < e.id {
				st.Edges = append(st.Edges, EdgeState{I: NodeID(i), J: e.id, Rels: append([]Relationship(nil), e.rels...)})
			}
		}
	}
	g.mu.RUnlock()
	for i := range g.interactions {
		row := &g.interactions[i]
		row.mu.Lock()
		if len(row.counts) > 0 {
			m := make(map[NodeID]float64, len(row.counts))
			for k, v := range row.counts {
				m[k] = v
			}
			st.Interactions[i] = m
		}
		row.mu.Unlock()
	}
	return st
}

// ImportState replaces the graph's topology and interaction table with a
// previously exported state and signals full invalidation to derived-state
// consumers. Every relationship list and interaction count afterwards is
// bit-identical to the exporting instance. A state that ExportState could
// not have produced — another node count, an out-of-range, self, unsorted
// or duplicate edge, or an edge without relationships — is rejected with an
// error and the graph is left unchanged.
func (g *Graph) ImportState(st State) error {
	if st.NumNodes != g.n || len(st.Interactions) != g.n {
		return fmt.Errorf("socialgraph: state for %d nodes (%d interaction rows) imported into %d-node graph",
			st.NumNodes, len(st.Interactions), g.n)
	}
	deg := make([]int, g.n)
	for k, es := range st.Edges {
		switch {
		case es.I < 0 || es.J < 0 || int(es.I) >= g.n || int(es.J) >= g.n:
			return fmt.Errorf("socialgraph: state edge %d (%d,%d) out of range [0,%d)", k, es.I, es.J, g.n)
		case es.I >= es.J:
			return fmt.Errorf("socialgraph: state edge %d (%d,%d) is a self edge or not ordered I < J", k, es.I, es.J)
		case len(es.Rels) == 0:
			return fmt.Errorf("socialgraph: state edge %d (%d,%d) has no relationships", k, es.I, es.J)
		}
		if k > 0 {
			prev := st.Edges[k-1]
			if es.I < prev.I || (es.I == prev.I && es.J <= prev.J) {
				return fmt.Errorf("socialgraph: state edge %d (%d,%d) is duplicate or out of (I,J) order after (%d,%d)",
					k, es.I, es.J, prev.I, prev.J)
			}
		}
		deg[es.I]++
		deg[es.J]++
	}
	// Edges arrive sorted by (I, J): every node's lower neighbors (edges
	// (I, x)) precede its higher ones (edges (x, J)), each run ascending, so
	// appending both halves in input order yields sorted adjacency in one
	// pass. One backing array holds every half-edge; each node's slice is
	// capped so a later insert reallocates only that node's list. The two
	// halves share one relationship list: AddRelationship appends the same
	// relationship to both, so they never diverge.
	backing := make([]edge, 2*len(st.Edges))
	adj := make([][]edge, g.n)
	off := 0
	for i, d := range deg {
		adj[i] = backing[off : off : off+d]
		off += d
	}
	for _, es := range st.Edges {
		rels := slices.Clip(append([]Relationship(nil), es.Rels...))
		adj[es.I] = append(adj[es.I], edge{id: es.J, rels: rels})
		adj[es.J] = append(adj[es.J], edge{id: es.I, rels: rels})
	}
	g.mu.Lock()
	g.adj = adj
	g.mu.Unlock()
	for i := range g.interactions {
		row := &g.interactions[i]
		row.mu.Lock()
		row.counts = nil
		if m := st.Interactions[i]; len(m) > 0 {
			row.counts = make(map[NodeID]float64, len(m))
			for k, v := range m {
				row.counts[k] = v
			}
		}
		row.mu.Unlock()
	}
	g.bumpAll()
	return nil
}

// ResetInteractions clears the interaction table, used between trace epochs.
func (g *Graph) ResetInteractions() {
	for i := range g.interactions {
		row := &g.interactions[i]
		row.mu.Lock()
		row.counts = nil
		row.mu.Unlock()
	}
	g.bumpAll() // every outgoing row changed: global invalidation
}
