// Coordinator-side durability. Each shard's host journals it to a per-shard
// write-ahead log: the Loopback under Options.StateDir, a cluster worker
// under its own state directory. The overlay keeps the bookkeeping that
// survives the host — per-shard drained sequence high-water marks, the
// replay floors every Restart carries — and exposes the recovery surface the
// simulator's crash-restart path drives: DrainedSeqs for snapshots,
// CompactWALs after them, and whole-process Resume.
//
// What is journaled is ShardCore's policy, the same for both hosts: primary
// ledger adds as rating records, replica-mirror and deferred entries as
// fated records, and a barrier mark on every coordinator-initiated restart.
// The WAL is what survives a process crash. A resumed process therefore
// restores the interrupted interval's replica mirrors and deferred queues
// from it, instead of relying on re-execution to rebuild them.
//
// The dedupe key is the rating's ingest sequence number (rating.Rating.Seq,
// assigned by the producer before submission). A drain's snapshot carries the
// max Seq it drained; the overlay keeps, per shard, the highest such mark
// ever applied on that shard's behalf (primary drain or replica
// substitution). WAL records at or below the mark are covered by completed
// drains; records above it are the shard's recoverable tail.
package manager

import "fmt"

// persistent reports whether drained marks are tracked: for shard WALs under
// StateDir, or on behalf of transport-hosted shards that journal host-side.
func (o *Overlay) persistent() bool { return o.drainedSeq != nil }

// noteDrained raises shard i's drained high-water mark. Callers hold o.mu.
func (o *Overlay) noteDrained(i int, maxSeq uint64) {
	if o.persistent() && maxSeq > o.drainedSeq[i] {
		o.drainedSeq[i] = maxSeq
	}
}

// noteReplicaDrained raises shard i's replica-drain high-water mark — the
// replay floor for the fated records backing the replica mirror and deferred
// queues shard i hosts. Callers hold o.mu.
func (o *Overlay) noteReplicaDrained(i int, maxSeq uint64) {
	if o.persistent() && maxSeq > o.replicaSeq[i] {
		o.replicaSeq[i] = maxSeq
	}
}

// floors returns shard i's replay floors for a Restart. Callers hold o.mu.
func (o *Overlay) floors(i int) (floor, replicaFloor uint64) {
	if o.persistent() {
		return o.drainedSeq[i], o.replicaSeq[i]
	}
	return 0, 0
}

// DrainedSeqs returns the per-shard drained sequence high-water marks — the
// values an interval-boundary snapshot must record so a restarted process can
// tell which WAL records completed drains already cover. Nil without a state
// directory.
func (o *Overlay) DrainedSeqs() []uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.persistent() {
		return nil
	}
	return append([]uint64(nil), o.drainedSeq...)
}

// ResetWALs discards all shard WAL contents. The simulator calls it when a
// state directory holds no snapshot (a fresh run over a possibly stale
// directory): with no snapshot to anchor them, leftover records are
// meaningless.
func (o *Overlay) ResetWALs() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, s := range o.shards {
		if err := s.conn.ResetWAL(); err != nil {
			return err
		}
	}
	for i := range o.drainedSeq {
		o.drainedSeq[i] = 0
	}
	return nil
}

// CompactWALs rotates every shard WAL whose records are all covered by
// completed drains — i.e. by the snapshot the caller just wrote. A WAL still
// holding records above its shard's drained mark (a crashed shard's
// recoverable tail, awaiting its restart replay) is kept; the host compares
// the mark against its own WAL, so the check needs no extra round trip. Call
// at a quiescent point, after a successful snapshot write; crash between
// snapshot and compaction is safe because replay filters by sequence number.
func (o *Overlay) CompactWALs() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !o.persistent() {
		return nil
	}
	for i, s := range o.shards {
		if err := s.conn.CompactWAL(o.drainedSeq[i]); err != nil {
			return err
		}
	}
	return nil
}

// Resume restores the overlay from an interval-boundary snapshot taken by a
// previous process: per-shard drained marks, the reputation vector to serve,
// and lastSeq — the global ingest sequence high-water at the snapshot
// boundary. It must run on a freshly constructed overlay, before any traffic,
// with the fault plan's state (if any) already imported.
//
// Shards the restored fault plan holds down are crashed; their WAL tails
// replay later, at their scheduled restart — exactly when the uninterrupted
// run would have replayed them. Live shards restart with markRecovered set,
// replaying only records above lastSeq: the acknowledged tail of the
// interrupted interval, including its replica and deferred entries. The
// replayed sequences are registered as recovered, so the deterministically
// re-executed interval's duplicate submissions are acknowledged without
// double-counting.
func (o *Overlay) Resume(drainedSeqs []uint64, lastSeq uint64, reps []float64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.transport != nil {
		// Whole-process snapshot resume is a coordinator-side feature;
		// transport-hosted shards recover through their own WALs (Restart
		// replay), not through Resume. The simulator rejects state-dir + cluster up front.
		return fmt.Errorf("manager: Resume is not supported with a transport")
	}
	if o.opts.StateDir == "" {
		return fmt.Errorf("manager: Resume requires a state directory")
	}
	if len(drainedSeqs) != len(o.shards) {
		return fmt.Errorf("manager: resume state for %d shards, overlay has %d", len(drainedSeqs), len(o.shards))
	}
	if len(reps) != o.numNodes {
		return fmt.Errorf("manager: resume vector for %d nodes, overlay has %d", len(reps), o.numNodes)
	}
	copy(o.drainedSeq, drainedSeqs)
	o.publish(reps)
	for i, s := range o.shards {
		if o.plan != nil && o.plan.Down(i) {
			o.crashShardLocked(i)
			continue
		}
		if err := s.conn.Restart(max(o.drainedSeq[i], lastSeq), lastSeq, true); err != nil {
			return err
		}
	}
	return nil
}
