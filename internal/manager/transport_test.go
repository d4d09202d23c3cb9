package manager

import (
	"errors"
	"sync"
	"testing"
	"time"

	"socialtrust/internal/rating"
	"socialtrust/internal/reputation/ebay"
)

// fakeShard is an in-memory stand-in for one worker-hosted shard: a ledger
// pair and a journal of every acknowledged rating standing in for the
// worker's WAL (Restart replays it above the floor).
type fakeShard struct {
	mu       sync.Mutex
	down     bool
	ledger   *rating.Ledger
	replica  *rating.Ledger
	deferred []rating.Rating
	journal  []rating.Rating // acked ratings, in order — the fake WAL

	marks    []uint64
	compacts []uint64
	resets   int

	// Failure injection: when set, every operation returns this error.
	failWith error
}

// fakeTransport implements Transport entirely in memory, mirroring the
// worker's semantics closely enough that an overlay routed through it must
// produce bit-identical results to an in-process one.
type fakeTransport struct {
	numShards  int
	numNodes   int
	replicated bool
	shards     []*fakeShard
	started    bool
	closed     bool
	// local marks shard indices that stay in-process (Shard returns nil).
	local map[int]bool
}

func newFakeTransport(numShards int) *fakeTransport {
	return &fakeTransport{numShards: numShards, local: map[int]bool{}}
}

func (ft *fakeTransport) Start(numNodes int, replicated bool) error {
	ft.started = true
	ft.numNodes = numNodes
	ft.replicated = replicated
	ft.shards = make([]*fakeShard, ft.numShards)
	for i := range ft.shards {
		fs := &fakeShard{ledger: rating.NewLedger(numNodes)}
		if replicated {
			fs.replica = rating.NewLedger(numNodes)
		}
		ft.shards[i] = fs
	}
	return nil
}

func (ft *fakeTransport) Shard(i int) ShardConn {
	if ft.local[i] {
		return nil
	}
	return &fakePort{ft: ft, i: i}
}

func (ft *fakeTransport) Close() error { ft.closed = true; return nil }

type fakePort struct {
	ft *fakeTransport
	i  int
}

func (p *fakePort) shard() *fakeShard { return p.ft.shards[p.i] }

func (p *fakePort) SubmitPlain(rs []rating.Rating) func() ([]error, error) {
	fs := p.shard()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.failWith != nil {
		err := fs.failWith
		return func() ([]error, error) { return nil, err }
	}
	if fs.down {
		return func() ([]error, error) { return nil, errors.New("fake: shard is down") }
	}
	errs := fs.ledger.AddBatch(rs)
	for i, r := range rs {
		if errs == nil || errs[i] == nil {
			fs.journal = append(fs.journal, r)
		}
	}
	return func() ([]error, error) { return errs, nil }
}

func (p *fakePort) SubmitEntries(entries []BatchEntry, timeout time.Duration) func() ([]error, error) {
	fs := p.shard()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.failWith != nil {
		err := fs.failWith
		return func() ([]error, error) { return nil, err }
	}
	if fs.down {
		return func() ([]error, error) { return nil, errors.New("fake: shard is down") }
	}
	var errs []error
	fail := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(entries))
		}
		errs[i] = err
	}
	for i, e := range entries {
		switch {
		case e.Deferred:
			fs.deferred = append(fs.deferred, e.R)
		case e.Replica:
			if err := fs.replica.Add(e.R); err != nil {
				fail(i, err)
			}
		default:
			if err := fs.ledger.Add(e.R); err != nil {
				fail(i, err)
				continue
			}
			fs.journal = append(fs.journal, e.R)
		}
	}
	return func() ([]error, error) { return errs, nil }
}

func (p *fakePort) Drain(timeout time.Duration) (DrainSnapshots, error) {
	fs := p.shard()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.failWith != nil {
		return DrainSnapshots{}, fs.failWith
	}
	if fs.down {
		return DrainSnapshots{}, errors.New("fake: shard is down")
	}
	for _, r := range fs.deferred {
		_ = fs.ledger.Add(r)
	}
	fs.deferred = nil
	var ds DrainSnapshots
	ds.Primary = fs.ledger.EndInterval()
	if fs.replica != nil {
		ds.Replica = fs.replica.EndInterval()
		ds.HasReplica = true
	}
	return ds, nil
}

func (p *fakePort) Crash() error {
	fs := p.shard()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.down = true
	fs.ledger = nil
	fs.replica = nil
	fs.deferred = nil
	return nil
}

func (p *fakePort) Restart(floor, replicaFloor uint64, markRecovered bool) error {
	fs := p.shard()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.ledger = rating.NewLedger(p.ft.numNodes)
	if p.ft.replicated {
		fs.replica = rating.NewLedger(p.ft.numNodes)
	}
	recovered := make(map[uint64]int)
	for _, r := range fs.journal {
		if r.Seq <= floor {
			continue
		}
		if err := fs.ledger.Add(r); err != nil {
			continue
		}
		if markRecovered {
			recovered[r.Seq]++
		}
	}
	if len(recovered) > 0 {
		fs.ledger.MarkRecovered(recovered)
	}
	fs.down = false
	return nil
}

func (p *fakePort) Mark(interval uint64) error {
	fs := p.shard()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.marks = append(fs.marks, interval)
	return nil
}

func (p *fakePort) CompactWAL(coveredSeq uint64) error {
	fs := p.shard()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.compacts = append(fs.compacts, coveredSeq)
	// Compaction discards the covered prefix of the fake WAL.
	kept := fs.journal[:0]
	for _, r := range fs.journal {
		if r.Seq > coveredSeq {
			kept = append(kept, r)
		}
	}
	fs.journal = kept
	return nil
}

func (p *fakePort) ResetWAL() error {
	fs := p.shard()
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.resets++
	fs.journal = nil
	return nil
}

func transportTrace(n int) []rating.Rating {
	var rs []rating.Rating
	seq := uint64(0)
	for i := 0; i < 3*n; i++ {
		v := 1.0
		if i%4 == 0 {
			v = -1
		}
		seq++
		rs = append(rs, rating.Rating{
			Rater: i % n, Ratee: (i*7 + 1) % n, Value: v,
			Cycle: i % 2, Category: i % 3, Seq: seq,
		})
	}
	return rs
}

// TestTransportMirrorsInProcess is the routing-correctness anchor: the same
// traffic through a transport-backed overlay and an in-process one must
// produce identical reputations, interval after interval.
func TestTransportMirrorsInProcess(t *testing.T) {
	const n, m = 12, 3
	ft := newFakeTransport(m)
	remote, err := NewWithOptions(n, m, ebay.New(n), Options{Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	local, err := New(n, m, ebay.New(n))
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	if !ft.started {
		t.Fatal("transport Start never called")
	}

	for interval := 0; interval < 3; interval++ {
		trace := transportTrace(n)
		if errs := remote.SubmitBatch(trace); errs != nil {
			t.Fatalf("interval %d: remote SubmitBatch: %v", interval, errs)
		}
		if errs := local.SubmitBatch(trace); errs != nil {
			t.Fatalf("interval %d: local SubmitBatch: %v", interval, errs)
		}
		// One single-rating submit: a batch of one through the same path.
		r := rating.Rating{Rater: 1, Ratee: 2, Value: 1, Seq: 10_000 + uint64(interval)}
		if err := remote.Submit(r); err != nil {
			t.Fatal(err)
		}
		if err := local.Submit(r); err != nil {
			t.Fatal(err)
		}
		rr, lr := remote.EndInterval(), local.EndInterval()
		for i := range lr {
			if rr[i] != lr[i] {
				t.Fatalf("interval %d: reputation[%d] remote %v != local %v", interval, i, rr[i], lr[i])
			}
		}
		// Queries are served from the published vector on both overlays.
		for node := 0; node < n; node++ {
			rq, err := remote.Query(node)
			if err != nil {
				t.Fatal(err)
			}
			lq, err := local.Query(node)
			if err != nil {
				t.Fatal(err)
			}
			if rq != lq {
				t.Fatalf("interval %d: query(%d) remote %v != local %v", interval, node, rq, lq)
			}
		}
	}
}

// TestTransportMixedHosting: Shard(i) returning nil keeps that shard
// in-process; the overlay must route seamlessly across the split.
func TestTransportMixedHosting(t *testing.T) {
	const n, m = 8, 4
	ft := newFakeTransport(m)
	ft.local[0], ft.local[2] = true, true
	mixed, err := NewWithOptions(n, m, ebay.New(n), Options{Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	defer mixed.Close()
	local, err := New(n, m, ebay.New(n))
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()

	trace := transportTrace(n)
	if errs := mixed.SubmitBatch(trace); errs != nil {
		t.Fatalf("mixed SubmitBatch: %v", errs)
	}
	if errs := local.SubmitBatch(trace); errs != nil {
		t.Fatalf("local SubmitBatch: %v", errs)
	}
	mr, lr := mixed.EndInterval(), local.EndInterval()
	for i := range lr {
		if mr[i] != lr[i] {
			t.Fatalf("reputation[%d] mixed %v != local %v", i, mr[i], lr[i])
		}
	}
	// The fake saw traffic only for the shards it hosts.
	for i, fs := range ft.shards {
		fs.mu.Lock()
		journal := len(fs.journal)
		fs.mu.Unlock()
		if ft.local[i] && journal != 0 {
			t.Fatalf("in-process shard %d leaked %d ratings into the transport", i, journal)
		}
		if !ft.local[i] && journal == 0 {
			t.Fatalf("remote shard %d received no traffic", i)
		}
	}
}

// TestTransportErrorMapping: transport-level failures must surface as the
// overlay's typed errors — ErrTimeout stays retryable, everything else reads
// as a dead shard.
func TestTransportErrorMapping(t *testing.T) {
	const n, m = 6, 2
	ft := newFakeTransport(m)
	o, err := NewWithOptions(n, m, ebay.New(n), Options{Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	ft.shards[1].failWith = ErrTimeout
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1, Seq: 1}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("timeout submit error = %v, want ErrTimeout", err)
	}
	ft.shards[1].failWith = errors.New("connection reset")
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1, Seq: 2}); !errors.Is(err, ErrShardDown) {
		t.Fatalf("dead-conn submit error = %v, want ErrShardDown", err)
	}
	errs := o.SubmitBatch([]rating.Rating{
		{Rater: 2, Ratee: 0, Value: 1, Seq: 3}, // shard 0: healthy
		{Rater: 0, Ratee: 1, Value: 1, Seq: 4}, // shard 1: failing
	})
	if errs == nil || errs[0] != nil || !errors.Is(errs[1], ErrShardDown) {
		t.Fatalf("batch errors = %v, want [nil, ErrShardDown]", errs)
	}
	ft.shards[1].failWith = nil
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1, Seq: 5}); err != nil {
		t.Fatalf("recovered shard still failing: %v", err)
	}
}

// TestTransportCrashRestartReplay: crashing a remote shard loses its
// incarnation but not its acknowledged (journaled) ratings — the restart
// replays them above the drained floor, so the interval drains complete.
func TestTransportCrashRestartReplay(t *testing.T) {
	const n, m = 6, 2
	ft := newFakeTransport(m)
	o, err := NewWithOptions(n, m, ebay.New(n), Options{Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	pre := []rating.Rating{
		{Rater: 0, Ratee: 1, Value: 1, Seq: 1},
		{Rater: 2, Ratee: 1, Value: 1, Seq: 2},
		{Rater: 4, Ratee: 3, Value: 1, Seq: 3},
	}
	for _, r := range pre {
		if err := o.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	o.crashShard(1)
	if _, err := o.Query(1); !errors.Is(err, ErrShardDown) {
		t.Fatalf("query on crashed remote shard = %v, want ErrShardDown", err)
	}
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1, Seq: 4}); !errors.Is(err, ErrShardDown) {
		t.Fatalf("submit to crashed remote shard = %v, want ErrShardDown", err)
	}
	o.mu.Lock()
	o.restartShardLocked(1)
	o.mu.Unlock()

	reps := o.EndInterval()
	// All three pre-crash ratings survived: node 1 has two positives, node 3
	// one — the same answer a never-crashed overlay gives.
	ref, err := New(n, m, ebay.New(n))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, r := range pre {
		if err := ref.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.EndInterval()
	for i := range want {
		if reps[i] != want[i] {
			t.Fatalf("reputation[%d] after crash+restart = %v, want %v", i, reps[i], want[i])
		}
	}
}

// TestTransportWALOps: the overlay's durability surface reaches remote
// shards as wire operations, not file operations.
func TestTransportWALOps(t *testing.T) {
	const n, m = 6, 2
	ft := newFakeTransport(m)
	o, err := NewWithOptions(n, m, ebay.New(n), Options{Transport: ft})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1, Seq: 7}); err != nil {
		t.Fatal(err)
	}
	o.EndInterval() // drains: raises shard 1's drained floor to 7
	if err := o.CompactWALs(); err != nil {
		t.Fatal(err)
	}
	fs := ft.shards[1]
	fs.mu.Lock()
	compacts := append([]uint64(nil), fs.compacts...)
	journal := len(fs.journal)
	fs.mu.Unlock()
	if len(compacts) != 1 || compacts[0] != 7 {
		t.Fatalf("shard 1 compact calls = %v, want [7]", compacts)
	}
	if journal != 0 {
		t.Fatalf("%d journal records survived a covering compaction", journal)
	}
	if err := o.ResetWALs(); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	resets := fs.resets
	fs.mu.Unlock()
	if resets != 1 {
		t.Fatalf("shard 1 resets = %d, want 1", resets)
	}
}
