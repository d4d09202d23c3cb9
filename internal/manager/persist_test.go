package manager

import (
	"testing"

	"socialtrust/internal/fault"
	"socialtrust/internal/persist"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation/ebay"
)

// seqRatings builds one rating per node with ingest sequence numbers
// continuing from *seq.
func seqRatings(n int, cycle int, seq *uint64) []rating.Rating {
	rs := make([]rating.Rating, 0, n)
	for i := 0; i < n; i++ {
		*seq++
		v := 1.0
		if i%3 == 0 {
			v = -1
		}
		rs = append(rs, rating.Rating{
			Rater: i, Ratee: (i + 1) % n, Value: v,
			Cycle: cycle, Seq: *seq,
		})
	}
	return rs
}

// shardWAL returns in-process shard i's WAL.
func shardWAL(o *Overlay, i int) *persist.WAL { return o.loopback.hosts[i].core.wal }

// TestRestartReplayNoDoubleCount is the WAL-replay / replica-mirror overlap
// test: when a crashed shard's interval was already recovered from its
// replica mirror at the drain, the restart's WAL replay must contribute
// nothing — every journaled record at or below the drained sequence mark is
// covered. A buggy replay would re-feed interval-1 ratings at the restart and
// double their weight in the accumulated engine scores.
func TestRestartReplayNoDoubleCount(t *testing.T) {
	const n, k = 16, 4
	cfg := fault.Config{Crashes: []fault.Crash{{Shard: 1, AtInterval: 1, Down: 1}}}
	run := func(stateDir string) []float64 {
		o, err := NewWithOptions(n, k, ebay.New(n), Options{
			Fault:    alwaysOnPlan(t, cfg, k),
			StateDir: stateDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		var seq uint64
		var reps []float64
		for interval := 0; interval < 3; interval++ {
			for _, r := range seqRatings(n, interval, &seq) {
				if err := o.Submit(r); err != nil {
					t.Fatal(err)
				}
			}
			reps = o.EndInterval()
		}
		return reps
	}
	plain := run("")
	durable := run(t.TempDir())
	for i := range plain {
		if plain[i] != durable[i] {
			t.Fatalf("node %d reputation diverged with WAL enabled: %v vs %v", i, plain[i], durable[i])
		}
	}
}

// TestRestartRecoversLostShardFromWAL covers the durability win over the
// replica mirror: when a shard and its replica holder crash in the same
// interval, the interval data is lost to the drain (Missing), but the WAL
// still holds it; the shard's restart replays the tail and the next drain
// counts it. eBay's accumulated scores are insensitive to which interval a
// pair's feedback lands in, so full recovery means final reputations equal a
// crash-free run's.
func TestRestartRecoversLostShardFromWAL(t *testing.T) {
	const n, k = 16, 4
	// Shard 2 is shard 1's replica holder: with both down, shard 1's
	// interval-1 ratings survive only in shard 1's WAL.
	cfg := fault.Config{Crashes: []fault.Crash{
		{Shard: 1, AtInterval: 1, Down: 1},
		{Shard: 2, AtInterval: 1, Down: 1},
	}}
	run := func(faultCfg fault.Config, stateDir string) ([]float64, DrainStatus) {
		o, err := NewWithOptions(n, k, ebay.New(n), Options{
			Fault:    alwaysOnPlan(t, faultCfg, k),
			StateDir: stateDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer o.Close()
		var seq uint64
		for _, r := range seqRatings(n, 0, &seq) {
			if err := o.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
		reps, first := o.EndIntervalStatus()
		for interval := 1; interval < 3; interval++ {
			reps, _ = o.EndIntervalStatus()
		}
		return reps, first
	}
	clean, _ := run(fault.Config{}, "")
	recovered, status := run(cfg, t.TempDir())
	if len(status.Missing) != 1 || status.Missing[0] != 1 {
		t.Fatalf("first drain Missing = %v, want [1]", status.Missing)
	}
	for i := range clean {
		if clean[i] != recovered[i] {
			t.Fatalf("node %d reputation %v after WAL recovery, want %v (crash-free)", i, recovered[i], clean[i])
		}
	}
	// Without the WAL, the same double crash genuinely loses the data.
	lossy, _ := run(cfg, "")
	same := true
	for i := range clean {
		if clean[i] != lossy[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("control failed: double crash without WAL lost nothing, test proves nothing")
	}
}

// TestResumeDedupesReplayedSubmissions is the process-crash dedupe test: a
// resumed overlay replays the WAL tail of the interrupted interval, then the
// deterministically re-executed interval submits the very same ratings again
// (same Seq). Each must land exactly once in the primary ledger, and the WAL
// must not grow a second copy.
func TestResumeDedupesReplayedSubmissions(t *testing.T) {
	const n, k = 12, 3
	dir := t.TempDir()
	newOverlay := func() *Overlay {
		o, err := NewWithOptions(n, k, ebay.New(n), Options{
			Fault:    alwaysOnPlan(t, fault.Config{}, k),
			StateDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	o1 := newOverlay()
	var seq uint64
	for _, r := range seqRatings(n, 0, &seq) {
		if err := o1.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	reps := o1.EndInterval()
	drained := o1.DrainedSeqs()
	lastSeq := seq
	// Mid-interval tail: acknowledged, journaled, never drained.
	tail := seqRatings(n, 1, &seq)[:6]
	for _, r := range tail {
		if err := o1.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	o1.Close() // stands in for the process dying; appends were already flushed

	o2 := newOverlay()
	defer o2.Close()
	if err := o2.Resume(drained, lastSeq, reps); err != nil {
		t.Fatal(err)
	}
	// Re-execute the interrupted interval: the same tail, same sequence
	// numbers, exactly as the deterministic simulator would.
	for _, r := range tail {
		if err := o2.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range tail {
		core := o2.loopback.hosts[o2.ManagerOf(r.Ratee)].core
		if c := core.ledger.Counts(r.Rater, r.Ratee); c.Total() != 1 {
			t.Fatalf("pair (%d,%d) counted %d times after replay+resubmit, want 1", r.Rater, r.Ratee, c.Total())
		}
	}
	// The WAL holds exactly one copy of each tail record: the replayed copy
	// was not re-journaled, and the deduped resubmission was not journaled.
	for i := range o2.shards {
		recs, err := shardWAL(o2, i).ReadBack()
		if err != nil {
			t.Fatalf("shard %d ReadBack: %v", i, err)
		}
		perSeq := map[uint64]int{}
		for _, rec := range recs {
			if rec.Kind == persist.KindRating && rec.Seq > lastSeq {
				perSeq[rec.Seq]++
			}
		}
		for s, cnt := range perSeq {
			if cnt != 1 {
				t.Fatalf("shard %d WAL holds %d copies of seq %d, want 1", i, cnt, s)
			}
		}
	}
}

// TestCompactWALsKeepsRecoverableTail verifies compaction never rotates away
// a crashed shard's undrained records, and does rotate fully covered logs.
func TestCompactWALsKeepsRecoverableTail(t *testing.T) {
	const n, k = 16, 4
	cfg := fault.Config{Crashes: []fault.Crash{
		{Shard: 1, AtInterval: 1, Down: 1},
		{Shard: 2, AtInterval: 1, Down: 1},
	}}
	o, err := NewWithOptions(n, k, ebay.New(n), Options{
		Fault:    alwaysOnPlan(t, cfg, k),
		StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	var seq uint64
	for _, r := range seqRatings(n, 0, &seq) {
		if err := o.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	o.EndInterval() // crashes shards 1+2; shard 1's data is lost to the drain
	if err := o.CompactWALs(); err != nil {
		t.Fatal(err)
	}
	if got := shardWAL(o, 1).MaxSeq(); got == 0 {
		t.Fatal("compaction rotated shard 1's recoverable tail away")
	}
	if got := shardWAL(o, 0).MaxSeq(); got != 0 {
		t.Fatalf("shard 0's fully drained WAL not rotated (MaxSeq %d)", got)
	}
	// Two more intervals: shards restart, the tail replays and drains; now
	// everything is covered and compaction empties shard 1's log too.
	o.EndInterval()
	o.EndInterval()
	if err := o.CompactWALs(); err != nil {
		t.Fatal(err)
	}
	if got := shardWAL(o, 1).MaxSeq(); got != 0 {
		t.Fatalf("shard 1's WAL not rotated after recovery (MaxSeq %d)", got)
	}
}
