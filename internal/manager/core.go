package manager

import (
	"fmt"
	"os"
	"path/filepath"

	"socialtrust/internal/persist"
	"socialtrust/internal/rating"
)

// ShardCore is one manager shard's state machine — the single
// implementation behind both hostings. The in-process Loopback and the
// cluster worker each apply a core's operations serially, so a core needs no
// locking of its own.
//
// It holds the primary interval ledger (ratings whose ratee maps to this
// shard), in fault-tolerant mode the replica mirror of its predecessor's
// primary, and the deferred queues for delay-injected entries, applied at the
// next drain. With a WAL attached every acknowledged entry is journaled
// before the acknowledgement: primary ledger adds as rating records, and
// replica and deferred entries as fated records. Each fated record is tagged
// with flags that route it back to the substrate it came from on replay.
type ShardCore struct {
	id         int
	numNodes   int
	replicated bool

	down            bool // crashed: every interval operation fails until Restart
	ledger          *rating.Ledger
	replica         *rating.Ledger // nil unless replicated
	deferred        []rating.Rating
	deferredReplica []rating.Rating

	wal *persist.WAL // nil without durability
	// recDeferred / recDeferredReplica hold sequence numbers of deferred
	// entries restored from a WAL replay, with multiplicity — the deferred
	// queues' twin of rating.Ledger.MarkRecovered. A resubmitted entry whose
	// Seq is pending here is acknowledged without being queued again.
	recDeferred        map[uint64]int
	recDeferredReplica map[uint64]int
	// drainCovers records, per completed drain, the primary and replica
	// snapshot high-water marks. A CompactWAL floor at or above a cover's
	// primary mark proves the coordinator received that drain, so fated
	// records up to its replica mark are safe to rotate away.
	drainCovers []drainCover
	// fatedDead is the highest fated sequence fenced off by a barrier mark:
	// records at or below it belong to a crashed incarnation and never replay.
	fatedDead uint64
}

// drainCover is one completed drain's coverage marks.
type drainCover struct {
	primaryMax, replicaMax uint64
}

// OpenShardCore builds shard id's core for an overlay of numNodes nodes,
// with a replica mirror when replicated. A non-empty stateDir attaches the
// WAL <stateDir>/shard-<id>.wal; a torn tail left by a crash is truncated on
// open.
func OpenShardCore(id, numNodes int, replicated bool, stateDir string, opts persist.Options) (*ShardCore, error) {
	c := &ShardCore{id: id, numNodes: numNodes, replicated: replicated}
	if stateDir != "" {
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return nil, err
		}
		w, _, err := persist.Open(filepath.Join(stateDir, fmt.Sprintf("shard-%d.wal", id)), opts)
		if err != nil {
			return nil, err
		}
		c.wal = w
	}
	c.fresh()
	c.journal(true)
	return c, nil
}

// fresh installs empty interval state: new ledgers with no journal, empty
// deferred queues and recovered sets.
func (c *ShardCore) fresh() {
	c.ledger = rating.NewLedger(c.numNodes)
	c.replica = nil
	if c.replicated {
		c.replica = rating.NewLedger(c.numNodes)
	}
	c.deferred, c.deferredReplica = nil, nil
	c.recDeferred, c.recDeferredReplica = nil, nil
}

// journal attaches (on) or suspends the ledgers' write-ahead hooks.
func (c *ShardCore) journal(on bool) {
	if c.wal == nil {
		return
	}
	if !on {
		c.ledger.SetJournal(nil)
		if c.replica != nil {
			c.replica.SetJournal(nil)
		}
		return
	}
	c.ledger.SetJournal(walJournal{w: c.wal, kind: persist.KindRating})
	if c.replica != nil {
		c.replica.SetJournal(walJournal{w: c.wal, kind: persist.KindFatedRating, flags: persist.FateReplica})
	}
}

// walJournal adapts a persist.WAL to the ledger's write-ahead hook, writing
// records of the given kind and fate flags.
type walJournal struct {
	w     *persist.WAL
	kind  byte
	flags byte
}

func (j walJournal) Append(rs []rating.Rating) error {
	recs := make([]persist.Record, len(rs))
	for i, r := range rs {
		recs[i] = persist.Record{
			Kind:     j.kind,
			Flags:    j.flags,
			Seq:      r.Seq,
			Rater:    int32(r.Rater),
			Ratee:    int32(r.Ratee),
			Cycle:    int32(r.Cycle),
			Category: int32(r.Category),
			Value:    r.Value,
		}
	}
	return j.w.Append(recs)
}

// outOfRange reports a rating the ledger would panic on. The overlay
// validates at entry; this check guards bytes that arrive off the wire.
func (c *ShardCore) outOfRange(r rating.Rating) error {
	if r.Rater < 0 || r.Rater >= c.numNodes || r.Ratee < 0 || r.Ratee >= c.numNodes {
		return fmt.Errorf("manager: node out of range in %+v (numNodes=%d)", r, c.numNodes)
	}
	return nil
}

// AddPlain applies a direct-mode sub-batch to the primary ledger in one
// AddBatch call. The first return is index-aligned per-entry errors (nil
// when every rating landed); the second is ErrShardDown on a crashed core.
func (c *ShardCore) AddPlain(rs []rating.Rating) ([]error, error) {
	if c.down {
		return nil, ErrShardDown
	}
	// Out-of-range entries fail individually; once one is seen, the valid
	// rest is copied aside with idx mapping it back to rs.
	valid := rs
	var errs []error
	var idx []int
	for i := range rs {
		err := c.outOfRange(rs[i])
		if err == nil {
			if errs != nil {
				valid = append(valid, rs[i])
				idx = append(idx, i)
			}
			continue
		}
		if errs == nil {
			errs = make([]error, len(rs))
			valid = append(make([]rating.Rating, 0, len(rs)), rs[:i]...)
			idx = make([]int, i, len(rs))
			for j := range idx {
				idx[j] = j
			}
		}
		errs[i] = err
	}
	res := c.ledger.AddBatch(valid)
	if errs == nil {
		return res, nil
	}
	for x, e := range res {
		if e != nil {
			errs[idx[x]] = e
		}
	}
	return errs, nil
}

// AddEntries applies a fault-mode sub-batch, routing each entry by its
// replica/deferred fate bits. Deferred entries are journaled as fated records
// on receipt; resubmissions of entries a WAL replay restored are acknowledged
// without being applied again.
func (c *ShardCore) AddEntries(es []BatchEntry) ([]error, error) {
	if c.down {
		return nil, ErrShardDown
	}
	var errs []error
	for i, e := range es {
		err := c.outOfRange(e.R)
		if err == nil {
			err = c.addEntry(e)
		}
		if err != nil {
			if errs == nil {
				errs = make([]error, len(es))
			}
			errs[i] = err
		}
	}
	return errs, nil
}

func (c *ShardCore) addEntry(e BatchEntry) error {
	switch {
	case e.Deferred:
		queue, rec, flags := &c.deferred, c.recDeferred, persist.FateDeferred
		if e.Replica {
			queue, rec, flags = &c.deferredReplica, c.recDeferredReplica, persist.FateDeferred|persist.FateReplica
		}
		if consumeRecovered(rec, e.R.Seq) {
			return nil // restored from the WAL; acknowledge without requeueing
		}
		if c.wal != nil {
			if err := (walJournal{w: c.wal, kind: persist.KindFatedRating, flags: flags}).Append([]rating.Rating{e.R}); err != nil {
				return err
			}
		}
		*queue = append(*queue, e.R)
		return nil
	case e.Replica:
		if c.replica == nil {
			return fmt.Errorf("manager: replica entry on unreplicated shard %d", c.id)
		}
		// The mirror's journal records the entry before it is acknowledged,
		// and its recovered set absorbs resubmissions of restored entries.
		return c.replica.Add(e.R)
	default:
		return c.ledger.Add(e.R)
	}
}

// consumeRecovered consumes one pending occurrence of seq from a deferred
// recovered-multiset, reporting whether it was pending.
func consumeRecovered(m map[uint64]int, seq uint64) bool {
	if seq == 0 || m[seq] == 0 {
		return false
	}
	if m[seq]--; m[seq] == 0 {
		delete(m, seq)
	}
	return true
}

// Drain flushes the deferred queues into their ledgers and snapshots the
// interval. The deferred entries were journaled when accepted, so the flush
// runs with the write-ahead hooks suspended.
func (c *ShardCore) Drain() (DrainSnapshots, error) {
	if c.down {
		return DrainSnapshots{}, ErrShardDown
	}
	c.journal(false)
	defer c.journal(true)
	var ds DrainSnapshots
	for _, r := range c.deferred {
		_ = c.ledger.Add(r) // validated at submit time
	}
	c.deferred = c.deferred[:0]
	ds.Primary = c.ledger.EndInterval()
	if c.replica != nil {
		for _, r := range c.deferredReplica {
			_ = c.replica.Add(r)
		}
		c.deferredReplica = c.deferredReplica[:0]
		ds.Replica = c.replica.EndInterval()
		ds.HasReplica = true
	}
	if c.wal != nil {
		c.drainCovers = append(c.drainCovers, drainCover{ds.Primary.MaxSeq, ds.Replica.MaxSeq})
	}
	return ds, nil
}

// Crash kills the incarnation: its interval ledgers and deferred queues are
// discarded. The WAL stays open — it is the durability mechanism, and the
// restart replays its recoverable tail.
func (c *ShardCore) Crash() {
	c.down = true
	c.ledger, c.replica = nil, nil
	c.deferred, c.deferredReplica = nil, nil
	c.recDeferred, c.recDeferredReplica = nil, nil
}

// Restart installs a fresh incarnation and replays the WAL's recoverable
// tail into it before the journals are reattached. Primary records replay
// above floor.
//
// Fated records (replica mirror, deferred queues) describe per-interval
// state: every drain flushes and discards them, so a record from a completed
// interval is dead no matter what its sequence number says relative to the
// drain floors — the floors only advance through drain replies and can lag
// arbitrarily while this shard or its mirrored shard is down. Interval
// boundaries are recovered from the WAL itself: fated records positioned
// before the last mark belong to drained intervals and never replay.
//
// With markRecovered set — a worker reconnect resync or a whole-process
// Resume — fated records after the last mark replay too (replica entries
// above replicaFloor, deferred primary entries above floor), and every
// replayed sequence is registered as recovered, with multiplicity, so the
// re-delivered entries are acknowledged without double-counting. Without it
// the restart is an incarnation crash: the mirror and deferred queues come
// back empty, and a barrier mark fences the dead incarnation's fated records
// off from any later replay.
func (c *ShardCore) Restart(floor, replicaFloor uint64, markRecovered bool) error {
	c.fresh()
	defer func() { c.down = false }()
	if c.wal == nil {
		c.journal(true)
		return nil
	}
	lastMark := c.replay(floor, replicaFloor, markRecovered)
	c.journal(true)
	if markRecovered {
		return nil
	}
	if err := c.wal.AppendMark(lastMark); err != nil {
		return err
	}
	c.fatedDead = c.wal.MaxFatedSeq()
	return nil
}

// replay feeds the WAL's live records into the fresh incarnation (see
// Restart) and returns the value of the last mark. A corrupt tail is not
// fatal: the valid prefix replays.
func (c *ShardCore) replay(floor, replicaFloor uint64, markRecovered bool) uint64 {
	recs, _ := c.wal.ReadBack()
	lastMark := -1
	var lastMarkVal uint64
	for i := range recs {
		if recs[i].Kind == persist.KindMark {
			lastMark, lastMarkVal = i, recs[i].Seq
		}
	}
	var recovered, recReplica map[uint64]int
	note := func(m *map[uint64]int, seq uint64) {
		if markRecovered {
			if *m == nil {
				*m = make(map[uint64]int)
			}
			(*m)[seq]++
		}
	}
	for i, rec := range recs {
		if rec.Kind != persist.KindRating && rec.Kind != persist.KindFatedRating {
			continue
		}
		r := rating.Rating{
			Rater:    int(rec.Rater),
			Ratee:    int(rec.Ratee),
			Value:    rec.Value,
			Cycle:    int(rec.Cycle),
			Category: int(rec.Category),
			Seq:      rec.Seq,
		}
		if c.outOfRange(r) != nil {
			continue // defensive: never panic on a corrupt record
		}
		fatedLive := markRecovered && i > lastMark
		deferred, replica := rec.Flags&persist.FateDeferred != 0, rec.Flags&persist.FateReplica != 0
		switch {
		case rec.Kind == persist.KindRating:
			if rec.Seq > floor && c.ledger.Add(r) == nil {
				note(&recovered, rec.Seq)
			}
		case !fatedLive:
		case deferred && replica:
			if rec.Seq > replicaFloor && c.replica != nil {
				c.deferredReplica = append(c.deferredReplica, r)
				note(&c.recDeferredReplica, rec.Seq)
			}
		case deferred:
			if rec.Seq > floor {
				c.deferred = append(c.deferred, r)
				note(&c.recDeferred, rec.Seq)
			}
		case replica:
			if rec.Seq > replicaFloor && c.replica != nil && c.replica.Add(r) == nil {
				note(&recReplica, rec.Seq)
			}
		}
	}
	if len(recovered) > 0 {
		c.ledger.MarkRecovered(recovered)
	}
	if len(recReplica) > 0 {
		c.replica.MarkRecovered(recReplica)
	}
	return lastMarkVal
}

// Mark stamps an interval mark on the WAL (fsync per policy). No-op without
// a WAL.
func (c *ShardCore) Mark(interval uint64) error {
	if c.wal == nil {
		return nil
	}
	return c.wal.AppendMark(interval)
}

// CompactWAL rotates the WAL when completed drains cover every record in
// it: primary records at or below floor (the shard's drained high-water
// mark), and fated records covered by a drain the coordinator provably
// received or fenced off by a barrier. A WAL still holding a crashed
// shard's recoverable tail is kept.
func (c *ShardCore) CompactWAL(floor uint64) error {
	if c.wal == nil || c.wal.MaxSeq() > floor || !c.fatedCovered(floor) {
		return nil
	}
	if err := c.wal.Rotate(); err != nil {
		return err
	}
	c.drainCovers, c.fatedDead = nil, 0
	return nil
}

// fatedCovered reports whether every fated record in the WAL is dead: a
// compact floor at or above a cover's primary mark implies that drain's
// reply landed, so its replica mark bounds the fated records it covered.
func (c *ShardCore) fatedCovered(floor uint64) bool {
	covered := c.fatedDead
	for _, d := range c.drainCovers {
		if d.primaryMax > 0 && d.primaryMax <= floor && d.replicaMax > covered {
			covered = d.replicaMax
		}
	}
	return c.wal.MaxFatedSeq() <= covered
}

// ResetWAL discards the WAL contents. No-op without a WAL.
func (c *ShardCore) ResetWAL() error {
	if c.wal == nil {
		return nil
	}
	c.drainCovers, c.fatedDead = nil, 0
	return c.wal.Rotate()
}

// Close syncs and closes the WAL. No-op without a WAL.
func (c *ShardCore) Close() error {
	if c.wal == nil {
		return nil
	}
	err := c.wal.Sync()
	if cerr := c.wal.Close(); err == nil {
		err = cerr
	}
	return err
}
