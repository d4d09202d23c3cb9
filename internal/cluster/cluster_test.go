package cluster

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"socialtrust/internal/manager"
	"socialtrust/internal/obs"
	"socialtrust/internal/persist"
	"socialtrust/internal/rating"
)

// TestMain hosts the worker side: Spawn re-executes this test binary with
// SOCIALTRUST_SHARDD_LISTEN set, and WorkerMainIfChild turns that child into
// a shard daemon instead of a second test run.
func TestMain(m *testing.M) {
	WorkerMainIfChild()
	obs.Enable() // so the cluster_* counters assertions can observe traffic
	os.Exit(m.Run())
}

// healthBase derives a per-run port base so parallel CI jobs don't collide.
func healthBase() int { return 20000 + os.Getpid()%10000 }

func spawnTest(t *testing.T, opts SpawnOptions) *ProcCluster {
	t.Helper()
	pc, err := Spawn(opts)
	if err != nil {
		t.Fatalf("Spawn: %v", err)
	}
	t.Cleanup(func() { _ = pc.Close() })
	return pc
}

func mustStart(t *testing.T, tr manager.Transport, numNodes int, replicated bool) {
	t.Helper()
	if err := tr.Start(numNodes, replicated); err != nil {
		t.Fatalf("transport Start: %v", err)
	}
}

// hostings are the two hosts of a shard core: the in-process loopback and a
// socket worker process. Shard op sequences run against both, one row each.
var hostings = []struct {
	name string
	open func(t *testing.T, stateDir string) manager.Transport // one shard
}{
	{"loopback", func(t *testing.T, stateDir string) manager.Transport {
		lb := manager.NewLoopback(1, stateDir, persist.Options{})
		t.Cleanup(func() { _ = lb.Close() })
		return lb
	}},
	{"socket", func(t *testing.T, stateDir string) manager.Transport {
		return spawnTest(t, SpawnOptions{Workers: 1, Shards: 1, StateDir: stateDir, NoRespawn: true}).Client()
	}},
}

func mkRatings(n, base int, seqStart uint64) []rating.Rating {
	rs := make([]rating.Rating, n)
	for i := range rs {
		v := 1.0
		if i%5 == 0 {
			v = -1
		}
		rs[i] = rating.Rating{
			Rater: (base + i) % 16, Ratee: (base + i + 1) % 16,
			Value: v, Cycle: i % 3, Category: i % 4, Seq: seqStart + uint64(i),
		}
	}
	return rs
}

func sortBySeq(rs []rating.Rating) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Seq < rs[j].Seq })
}

// TestClusterEndToEnd drives the full transport surface against real worker
// processes: handshake, pipelined plain submits, drain snapshots, WAL marks
// and compaction.
func TestClusterEndToEnd(t *testing.T) {
	pc := spawnTest(t, SpawnOptions{Workers: 2, Shards: 4, StateDir: t.TempDir(), NoRespawn: true})
	cl := pc.Client()
	mustStart(t, cl, 16, false)

	// Pipelined submission: send to every shard first, collect second — the
	// overlap the overlay's submitBatchDirect relies on.
	want := make(map[int][]rating.Rating)
	var waits []func() ([]error, error)
	var seq uint64
	for s := 0; s < 4; s++ {
		for b := 0; b < 3; b++ {
			rs := mkRatings(10, s*100+b, seq+1)
			seq += uint64(len(rs))
			want[s] = append(want[s], rs...)
			waits = append(waits, cl.Shard(s).SubmitPlain(rs))
		}
	}
	for i, wait := range waits {
		errs, err := wait()
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		for _, e := range errs {
			if e != nil {
				t.Fatalf("submit %d entry error: %v", i, e)
			}
		}
	}

	for s := 0; s < 4; s++ {
		ds, err := cl.Shard(s).Drain(0)
		if err != nil {
			t.Fatalf("drain shard %d: %v", s, err)
		}
		if ds.HasReplica {
			t.Fatalf("shard %d: replica snapshot on an unreplicated overlay", s)
		}
		got := ds.Primary.Ratings
		sortBySeq(got)
		exp := want[s]
		sortBySeq(exp)
		if len(got) != len(exp) {
			t.Fatalf("shard %d: drained %d ratings, want %d", s, len(got), len(exp))
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("shard %d rating %d: got %+v want %+v", s, i, got[i], exp[i])
			}
		}
		// The snapshot's recomputed pair counters must match the ledger rule.
		for key, c := range ds.Primary.Counts {
			var pos, neg int
			for _, r := range exp {
				if r.Rater == key.Rater && r.Ratee == key.Ratee {
					if r.Value > 0 {
						pos++
					} else if r.Value < 0 {
						neg++
					}
				}
			}
			if c.Positive != pos || c.Negative != neg {
				t.Fatalf("shard %d pair %+v: counts %+v, want +%d -%d", s, key, c, pos, neg)
			}
		}
	}

	// Lifecycle ops answer OK end to end.
	for s := 0; s < 4; s++ {
		sc := cl.Shard(s)
		if err := sc.Mark(1); err != nil {
			t.Fatalf("Mark shard %d: %v", s, err)
		}
		if err := sc.CompactWAL(seq); err != nil {
			t.Fatalf("CompactWAL shard %d: %v", s, err)
		}
	}

	// An empty interval drains to an empty snapshot.
	ds, err := cl.Shard(0).Drain(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Primary.Ratings) != 0 {
		t.Fatalf("second drain returned %d ratings, want 0", len(ds.Primary.Ratings))
	}
}

// TestClusterFateBits checks the fault-mode entry routing on both hostings:
// replica entries land in the mirror ledger, deferred entries surface only
// at the drain.
func TestClusterFateBits(t *testing.T) {
	for _, host := range hostings {
		t.Run(host.name, func(t *testing.T) {
			tr := host.open(t, "")
			mustStart(t, tr, 16, true)

			sc := tr.Shard(0)
			primary := mkRatings(4, 0, 1)
			replica := mkRatings(3, 20, 101)
			deferred := mkRatings(2, 40, 201)
			var entries []manager.BatchEntry
			for _, r := range primary {
				entries = append(entries, manager.BatchEntry{R: r})
			}
			for _, r := range replica {
				entries = append(entries, manager.BatchEntry{R: r, Replica: true})
			}
			for _, r := range deferred {
				entries = append(entries, manager.BatchEntry{R: r, Deferred: true})
			}
			errs, err := sc.SubmitEntries(entries, time.Second)()
			if err != nil {
				t.Fatalf("SubmitEntries: %v", err)
			}
			for i, e := range errs {
				if e != nil {
					t.Fatalf("entry %d: %v", i, e)
				}
			}
			ds, err := sc.Drain(time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !ds.HasReplica {
				t.Fatal("replicated drain carried no replica snapshot")
			}
			if got, wantN := len(ds.Primary.Ratings), len(primary)+len(deferred); got != wantN {
				t.Fatalf("primary snapshot has %d ratings, want %d (primary+deferred)", got, wantN)
			}
			if got := len(ds.Replica.Ratings); got != len(replica) {
				t.Fatalf("replica snapshot has %d ratings, want %d", got, len(replica))
			}
		})
	}
}

// TestClusterRejectsOutOfRange: a worker must fail malformed node IDs
// per-entry (never panic), leaving the valid entries applied.
func TestClusterRejectsOutOfRange(t *testing.T) {
	pc := spawnTest(t, SpawnOptions{Workers: 1, Shards: 1, NoRespawn: true})
	cl := pc.Client()
	mustStart(t, cl, 8, false)

	rs := []rating.Rating{
		{Rater: 1, Ratee: 2, Value: 1, Seq: 1},
		{Rater: 99, Ratee: 2, Value: 1, Seq: 2}, // out of range
		{Rater: 3, Ratee: 4, Value: 1, Seq: 3},
	}
	errs, err := cl.Shard(0).SubmitPlain(rs)()
	if err != nil {
		t.Fatalf("SubmitPlain: %v", err)
	}
	if len(errs) != 3 || errs[0] != nil || errs[1] == nil || errs[2] != nil {
		t.Fatalf("per-entry errors %v, want only index 1 failed", errs)
	}
	ds, err := cl.Shard(0).Drain(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Primary.Ratings) != 2 {
		t.Fatalf("drained %d ratings, want the 2 valid ones", len(ds.Primary.Ratings))
	}
}

// TestWorkerGracefulDrainSIGTERM is the drain contract end to end: on
// SIGTERM the worker finishes and answers everything it received, flips
// /readyz to 503 for the linger window, syncs its WALs, and exits 0 — and
// every acknowledged sequence number is durable in its WAL afterwards.
func TestWorkerGracefulDrainSIGTERM(t *testing.T) {
	stateDir := t.TempDir()
	hb := healthBase()
	pc := spawnTest(t, SpawnOptions{
		Workers: 1, Shards: 2, StateDir: stateDir,
		HealthBase: hb, NoRespawn: true, Linger: 1500 * time.Millisecond,
	})
	cl := pc.Client()
	mustStart(t, cl, 16, false)

	// A background submitter keeps batches in flight so the SIGTERM lands
	// mid-stream; ackedSeq tracks the durability obligation.
	var ackedSeq atomic.Uint64
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		var seq uint64
		for round := 0; ; round++ {
			rs := mkRatings(8, round, seq+1)
			seq += uint64(len(rs))
			errs, err := cl.Shard(round % 2).SubmitPlain(rs)()
			if err != nil {
				return // connection died: the drain cut us off
			}
			for _, e := range errs {
				if e != nil {
					return
				}
			}
			ackedSeq.Store(seq)
		}
	}()

	// Let some acknowledgements accumulate before pulling the trigger.
	deadline := time.Now().Add(5 * time.Second)
	for ackedSeq.Load() < 64 {
		if time.Now().After(deadline) {
			t.Fatal("no acknowledgements within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := pc.Kill(0, syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}

	// During the linger window the process is alive but not ready.
	readyURL := fmt.Sprintf("http://127.0.0.1:%d/readyz", hb)
	saw503 := false
	for i := 0; i < 100 && !saw503; i++ {
		resp, err := http.Get(readyURL)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				saw503 = true
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !saw503 {
		t.Error("never observed /readyz -> 503 during the drain linger window")
	}

	code, err := pc.WaitExit(0, 10*time.Second)
	if err != nil {
		t.Fatalf("worker did not exit: %v", err)
	}
	if code != 0 {
		t.Fatalf("drained worker exited %d, want 0", code)
	}
	_ = cl.Close() // fail any in-flight call so the submitter unblocks
	<-subDone

	// Every acknowledged sequence must be in the worker's WALs.
	acked := ackedSeq.Load()
	if acked == 0 {
		t.Fatal("no ratings acknowledged before SIGTERM")
	}
	durable := make(map[uint64]bool)
	var maxDurable uint64
	for shard := 0; shard < 2; shard++ {
		path := filepath.Join(stateDir, "worker-0", fmt.Sprintf("shard-%d.wal", shard))
		wal, rec, err := persist.Open(path, persist.Options{})
		if err != nil {
			t.Fatalf("reopen shard %d WAL: %v", shard, err)
		}
		if rec.Corrupt != nil {
			t.Errorf("shard %d WAL has a torn tail after a clean drain: %v", shard, rec.Corrupt)
		}
		for _, r := range rec.Records {
			if r.Kind == persist.KindRating {
				durable[r.Seq] = true
				if r.Seq > maxDurable {
					maxDurable = r.Seq
				}
			}
		}
		_ = wal.Close()
	}
	for seq := uint64(1); seq <= acked; seq++ {
		if !durable[seq] {
			t.Fatalf("acknowledged seq %d missing from WALs (acked high-water %d)", seq, acked)
		}
	}
	if maxDurable < acked {
		t.Fatalf("WAL high-water %d below acknowledged %d", maxDurable, acked)
	}
}

// TestWorkerKillRecovery SIGKILLs a worker mid-interval: the supervisor
// respawns it, the client reconnects and replays the restart handshake, and
// the respawned worker rebuilds its acknowledged state from its own WAL —
// the drain must look exactly as if the crash never happened.
func TestWorkerKillRecovery(t *testing.T) {
	stateDir := t.TempDir()
	pc := spawnTest(t, SpawnOptions{Workers: 2, Shards: 2, StateDir: stateDir})
	cl := pc.Client()
	mustStart(t, cl, 16, false)

	want := make(map[int][]rating.Rating)
	var seq uint64
	submit := func(shard, n int) {
		t.Helper()
		rs := mkRatings(n, shard*10, seq+1)
		seq += uint64(n)
		errs, err := cl.Shard(shard).SubmitPlain(rs)()
		if err != nil {
			t.Fatalf("submit shard %d: %v", shard, err)
		}
		for _, e := range errs {
			if e != nil {
				t.Fatalf("submit shard %d entry: %v", shard, e)
			}
		}
		want[shard] = append(want[shard], rs...)
	}
	submit(0, 12)
	submit(1, 9)

	// Capture the incarnation's exit channel before killing: the supervisor
	// replaces it the moment it respawns, so WaitExit would race the respawn.
	pc.procs[0].mu.Lock()
	exited := pc.procs[0].exited
	pc.procs[0].mu.Unlock()
	if err := pc.Kill(0, syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("killed worker still running after 5s")
	}

	// More traffic lands after the respawn — the first operation rides the
	// reconnect (queued, replayed by the resync) and must still succeed.
	submit(0, 7)
	submit(1, 5)

	for shard := 0; shard < 2; shard++ {
		ds, err := cl.Shard(shard).Drain(0)
		if err != nil {
			t.Fatalf("drain shard %d after recovery: %v", shard, err)
		}
		got := ds.Primary.Ratings
		exp := want[shard]
		sortBySeq(got)
		sortBySeq(exp)
		if len(got) != len(exp) {
			t.Fatalf("shard %d: %d ratings after recovery, want %d (no loss, no duplicates)",
				shard, len(got), len(exp))
		}
		for i := range got {
			if got[i] != exp[i] {
				t.Fatalf("shard %d rating %d: got %+v want %+v", shard, i, got[i], exp[i])
			}
		}
		if ds.Primary.MaxSeq != exp[len(exp)-1].Seq {
			t.Fatalf("shard %d MaxSeq %d, want %d", shard, ds.Primary.MaxSeq, exp[len(exp)-1].Seq)
		}
	}
	if got := mReconnects.Value(); got == 0 {
		t.Error("recovery path exercised but cluster_reconnects_total stayed 0")
	}
}

// TestRestartFatedBarrier pins the replay semantics of fated records across
// the two restart flavors, on both hostings. A coordinator-initiated restart (markRecovered
// false) is an incarnation crash: the replica mirror and deferred queues are
// rebuilt empty — per-interval state does not survive a crash — and a barrier
// mark is appended to the WAL. A reconnect resync (markRecovered true)
// replays only fated records positioned after the last mark: anything before
// it belonged to a drained interval or a dead incarnation, and resurrecting
// it would double-count ratings when the mirror is later substituted for a
// crashed primary.
func TestRestartFatedBarrier(t *testing.T) {
	for _, host := range hostings {
		t.Run(host.name, func(t *testing.T) {
			tr := host.open(t, t.TempDir())
			mustStart(t, tr, 16, true)
			sc := tr.Shard(0)

			submitFated := func(replica, deferred []rating.Rating) {
				t.Helper()
				var entries []manager.BatchEntry
				for _, r := range replica {
					entries = append(entries, manager.BatchEntry{R: r, Replica: true})
				}
				for _, r := range deferred {
					entries = append(entries, manager.BatchEntry{R: r, Deferred: true})
				}
				errs, err := sc.SubmitEntries(entries, time.Second)()
				if err != nil {
					t.Fatalf("SubmitEntries: %v", err)
				}
				for i, e := range errs {
					if e != nil {
						t.Fatalf("entry %d: %v", i, e)
					}
				}
			}

			primary1 := mkRatings(4, 0, 1)
			if _, err := sc.SubmitPlain(primary1)(); err != nil {
				t.Fatal(err)
			}
			submitFated(mkRatings(3, 20, 101), mkRatings(2, 40, 201))

			// Plan restart: primary records replay above the floor, but the mirror
			// and deferred queue come back empty.
			if err := sc.Crash(); err != nil {
				t.Fatal(err)
			}
			if err := sc.Restart(0, 0, false); err != nil {
				t.Fatal(err)
			}
			ds, err := sc.Drain(time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(ds.Primary.Ratings); got != len(primary1) {
				t.Fatalf("post-plan-restart primary has %d ratings, want %d (deferred queue must not survive the crash)", got, len(primary1))
			}
			if got := len(ds.Replica.Ratings); got != 0 {
				t.Fatalf("post-plan-restart mirror has %d ratings, want 0", got)
			}

			// Resync restart: only fated records journaled after the barrier replay.
			// replicaFloor stays 0 — the barrier alone must fence the old records.
			replica2 := mkRatings(3, 20, 301)
			deferred2 := mkRatings(2, 40, 401)
			submitFated(replica2, deferred2)
			if err := sc.Crash(); err != nil {
				t.Fatal(err)
			}
			if err := sc.Restart(ds.Primary.MaxSeq, 0, true); err != nil {
				t.Fatal(err)
			}
			ds, err = sc.Drain(time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(ds.Primary.Ratings); got != len(deferred2) {
				t.Fatalf("post-resync primary has %d ratings, want %d (deferred2 flushed, nothing resurrected)", got, len(deferred2))
			}
			if got := len(ds.Replica.Ratings); got != len(replica2) {
				t.Fatalf("post-resync mirror has %d ratings, want %d (pre-barrier mirror records must not replay)", got, len(replica2))
			}
			for _, r := range ds.Replica.Ratings {
				if r.Seq < 301 {
					t.Fatalf("mirror resurrected pre-barrier record seq=%d", r.Seq)
				}
			}
		})
	}
}

// TestClusterCrashRestart drives the overlay's fault-injection surface over
// the wire: Crash discards the incarnation, Restart replays the WAL tail
// above the drain floor.
func TestClusterCrashRestart(t *testing.T) {
	pc := spawnTest(t, SpawnOptions{Workers: 1, Shards: 1, StateDir: t.TempDir(), NoRespawn: true})
	cl := pc.Client()
	mustStart(t, cl, 16, false)
	sc := cl.Shard(0)

	rs := mkRatings(10, 0, 1)
	if _, err := sc.SubmitPlain(rs)(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Crash(); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	// A crashed shard refuses work until restarted.
	if _, err := sc.SubmitPlain(mkRatings(1, 0, 100))(); err == nil {
		t.Fatal("submit to a crashed shard succeeded")
	}
	if err := sc.Restart(0, 0, false); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	ds, err := sc.Drain(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The WAL replay (floor 0) restores all ten acknowledged ratings.
	if len(ds.Primary.Ratings) != len(rs) {
		t.Fatalf("post-restart drain has %d ratings, want %d", len(ds.Primary.Ratings), len(rs))
	}
}
