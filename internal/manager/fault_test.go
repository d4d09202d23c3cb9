package manager

import (
	"errors"
	"testing"
	"time"

	"socialtrust/internal/fault"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation/ebay"
)

// alwaysOnPlan builds a plan that injects nothing but keeps the overlay's
// fault-tolerant machinery (replication, retry, deadlines) active.
func alwaysOnPlan(t testing.TB, cfg fault.Config, shards int) *fault.Plan {
	t.Helper()
	cfg.AlwaysOn = true
	p, err := fault.NewPlan(cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSubmitShardDownNoHang is the regression test for the seed deadlock:
// a dead shard goroutine must yield a prompt typed error, not block the
// caller forever.
func TestSubmitShardDownNoHang(t *testing.T) {
	o, err := New(8, 4, ebay.New(8))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	o.crashShard(1)
	done := make(chan error, 1)
	go func() {
		done <- o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1}) // ratee 1 → shard 1
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrShardDown) {
			t.Fatalf("Submit to dead shard = %v, want ErrShardDown", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Submit to dead shard hung")
	}
	if _, err := o.Query(1); !errors.Is(err, ErrShardDown) {
		t.Fatalf("Query on dead shard = %v, want ErrShardDown", err)
	}
	if got := o.Reputation(1); got != 0 {
		t.Fatalf("Reputation on dead shard = %v, want 0", got)
	}
	// Other shards keep working.
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 2, Value: 1}); err != nil {
		t.Fatalf("Submit to live shard after a crash: %v", err)
	}
}

func TestQueryAfterClose(t *testing.T) {
	o, err := New(4, 2, ebay.New(4))
	if err != nil {
		t.Fatal(err)
	}
	o.Close()
	if _, err := o.Query(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close = %v, want ErrClosed", err)
	}
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestMergeSnapshotsPartial covers the partial-drain inputs: zero
// snapshots, a single snapshot, and all-empty snapshots.
func TestMergeSnapshotsPartial(t *testing.T) {
	if m := mergeSnapshots(nil); len(m.Ratings) != 0 || len(m.Counts) != 0 {
		t.Fatalf("merge of zero snapshots = %+v, want empty", m)
	}
	one := rating.Snapshot{
		Ratings: []rating.Rating{{Rater: 1, Ratee: 0, Value: 1}},
		Counts:  map[rating.PairKey]rating.PairCounts{{Rater: 1, Ratee: 0}: {Positive: 1}},
	}
	m := mergeSnapshots([]rating.Snapshot{one})
	if len(m.Ratings) != 1 || m.Counts[rating.PairKey{Rater: 1, Ratee: 0}].Positive != 1 {
		t.Fatalf("merge of one snapshot = %+v", m)
	}
	m = mergeSnapshots([]rating.Snapshot{{}, {Counts: map[rating.PairKey]rating.PairCounts{}}, {}})
	if len(m.Ratings) != 0 || len(m.Counts) != 0 {
		t.Fatalf("merge of all-missing snapshots = %+v, want empty", m)
	}
	m = mergeSnapshots([]rating.Snapshot{{}, one, {}})
	if len(m.Ratings) != 1 {
		t.Fatalf("merge with missing entries lost data: %+v", m)
	}
}

// TestReplicaMatchesPrimary is the replica-consistency proof at the manager
// level: an overlay that loses shards' primary interval ledgers to crashes
// must reconstruct the interval bit-identically from replica mirrors.
func TestReplicaMatchesPrimary(t *testing.T) {
	const n, k = 16, 4
	events := []rating.Rating{}
	for i := 0; i < n; i++ {
		for d := 1; d <= 3; d++ {
			events = append(events, rating.Rating{Rater: i, Ratee: (i + d) % n, Value: float64(d%2)*2 - 1})
		}
	}
	run := func(cfg fault.Config) []float64 {
		o, err := NewWithOptions(n, k, ebay.New(n), Options{Fault: alwaysOnPlan(t, cfg, k)})
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		for _, r := range events {
			if err := o.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		reps, _ := o.EndIntervalStatus()
		return reps
	}
	clean := run(fault.Config{})
	// Crash shards 0 and 2 at interval 1: their interval ledgers die before
	// the drain, so the update runs entirely on the mirrors held by 1 and 3.
	crashed := run(fault.Config{Crashes: []fault.Crash{
		{Shard: 0, AtInterval: 1}, {Shard: 2, AtInterval: 1},
	}})
	// And against the seed (non-replicated) overlay.
	seed, err := New(n, k, ebay.New(n))
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	for _, r := range events {
		if err := seed.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	want := seed.EndInterval()
	for i := range want {
		if clean[i] != want[i] {
			t.Fatalf("node %d: replicated overlay %v vs seed %v", i, clean[i], want[i])
		}
		if crashed[i] != want[i] {
			t.Fatalf("node %d: replica-recovered %v vs seed %v (mirror not bit-identical)", i, crashed[i], want[i])
		}
	}
}

// TestSubmitFailoverToReplica: with the primary down mid-interval, Submit
// must succeed via the replica mirror and the drain must recover the data.
func TestSubmitFailoverToReplica(t *testing.T) {
	const n, k = 8, 4
	o, err := NewWithOptions(n, k, ebay.New(n), Options{
		Fault:        alwaysOnPlan(t, fault.Config{}, k),
		RetryBackoff: 50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	o.crashShard(1) // primary for ratee 1; replica mirror lives on shard 2
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1}); err != nil {
		t.Fatalf("Submit with dead primary = %v, want failover success", err)
	}
	reps, st := o.EndIntervalStatus()
	if len(st.ReplicaUsed) != 1 || st.ReplicaUsed[0] != 1 {
		t.Fatalf("ReplicaUsed = %v, want [1]", st.ReplicaUsed)
	}
	if st.Partial {
		t.Fatal("drain with a live replica should not be partial")
	}
	if reps[1] != 1 {
		t.Fatalf("reputation recovered via replica = %v, want 1", reps[1])
	}
}

// TestQueryFailoverToReplica: a query for a node whose primary shard is down
// is served from the replica shard's broadcast copy.
func TestQueryFailoverToReplica(t *testing.T) {
	const n, k = 8, 4
	o, err := NewWithOptions(n, k, ebay.New(n), Options{Fault: alwaysOnPlan(t, fault.Config{}, k)})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1}); err != nil {
		t.Fatal(err)
	}
	o.EndInterval()
	o.crashShard(1)
	got, err := o.Query(1)
	if err != nil || got != 1 {
		t.Fatalf("Query with dead primary = (%v, %v), want (1, nil)", got, err)
	}
}

// TestDropReturnsTimeout: with every delivery dropped, both the primary and
// replica attempts lose their messages and Submit surfaces ErrTimeout.
func TestDropReturnsTimeout(t *testing.T) {
	o, err := NewWithOptions(8, 4, ebay.New(8), Options{
		Fault:        alwaysOnPlan(t, fault.Config{Drop: 1}, 4),
		RetryBackoff: 10 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Submit under 100%% drop = %v, want ErrTimeout", err)
	}
	// The interval still completes: no data arrived, reputations fall back
	// to the engine's last-known (initial) vector.
	reps, st := o.EndIntervalStatus()
	if st.Partial {
		t.Fatalf("all shards alive, drain should not be partial: %+v", st)
	}
	if reps[1] != 0 {
		t.Fatalf("dropped rating leaked into reputations: %v", reps[1])
	}
}

// TestDelayAppliedAtDrain: delayed messages are acknowledged on receipt and
// land in the ledger at the interval drain — slow but within the interval.
func TestDelayAppliedAtDrain(t *testing.T) {
	o, err := NewWithOptions(8, 4, ebay.New(8), Options{
		Fault: alwaysOnPlan(t, fault.Config{Delay: 1}, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1}); err != nil {
		t.Fatalf("delayed Submit = %v, want ack", err)
	}
	reps := o.EndInterval()
	if reps[1] != 1 {
		t.Fatalf("delayed rating missing from interval: rep = %v, want 1", reps[1])
	}
}

// TestDuplicateDelivery: duplicated messages must not error or deadlock;
// the double-count is the injected fault the filter layer must tolerate.
func TestDuplicateDelivery(t *testing.T) {
	o, err := NewWithOptions(8, 4, ebay.New(8), Options{
		Fault: alwaysOnPlan(t, fault.Config{Duplicate: 1}, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1}); err != nil {
		t.Fatalf("duplicated Submit = %v", err)
	}
	if reps := o.EndInterval(); reps[1] <= 0 {
		t.Fatalf("duplicated rating lost: rep = %v", reps[1])
	}
}

// TestPartialDrainNoReplicaAlive: when a shard and its replica holder are
// both down, the interval's data for that shard is lost; EndInterval must
// degrade to the surviving quorum without deadlocking, and the shards must
// come back at the scheduled interval.
func TestPartialDrainNoReplicaAlive(t *testing.T) {
	const n, k = 8, 2 // replicaOf(0)=1 and replicaOf(1)=0: crashing both loses everything
	o, err := NewWithOptions(n, k, ebay.New(n), Options{
		Fault: alwaysOnPlan(t, fault.Config{Crashes: []fault.Crash{
			{Shard: 0, AtInterval: 1, Down: 1},
			{Shard: 1, AtInterval: 1, Down: 1},
		}}, k),
		RetryBackoff: 10 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1}); err != nil {
		t.Fatal(err)
	}
	done := make(chan DrainStatus, 1)
	go func() {
		_, st := o.EndIntervalStatus()
		done <- st
	}()
	var st DrainStatus
	select {
	case st = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("EndInterval deadlocked with all shards down")
	}
	if !st.Partial || len(st.Missing) != 2 {
		t.Fatalf("status = %+v, want partial with both shards missing", st)
	}
	if len(st.Crashed) != 2 {
		t.Fatalf("Crashed = %v, want both shards", st.Crashed)
	}
	// Next interval restarts both; the overlay is serviceable again.
	_, st = o.EndIntervalStatus()
	if len(st.Restarted) != 2 {
		t.Fatalf("Restarted = %v, want both shards", st.Restarted)
	}
	if err := o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1}); err != nil {
		t.Fatalf("Submit after restart = %v", err)
	}
	if reps := o.EndInterval(); reps[1] != 1 {
		t.Fatalf("post-restart interval rep = %v, want 1", reps[1])
	}
}

// TestStalledShardTimesOut exercises the real context deadline (not the
// synthetic drop path): a shard wedged mid-request must surface ErrTimeout
// within the configured deadline.
func TestStalledShardTimesOut(t *testing.T) {
	const n, k = 4, 2
	o, err := NewWithOptions(n, k, ebay.New(n), Options{
		Fault:         alwaysOnPlan(t, fault.Config{}, k),
		SubmitTimeout: 5 * time.Millisecond,
		RetryAttempts: 2,
		RetryBackoff:  50 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	// Wedge both shards: an operation that blocks until Close holds each
	// loopback host's goroutine inside it, so nothing queued behind it runs.
	for i := 0; i < k; i++ {
		o.loopback.hosts[i].ops <- func() { <-o.loopback.closed }
	}
	start := time.Now()
	err = o.Submit(rating.Rating{Rater: 0, Ratee: 1, Value: 1})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("Submit to wedged shards = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, deadlines not enforced", elapsed)
	}
}
