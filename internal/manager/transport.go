// Transport abstraction: the seam between the overlay and the hosts of its
// shards. Every shard is a ShardCore (core.go), and the overlay reaches each
// one only through a ShardConn. Two hosts implement it: the in-process
// Loopback (loopback.go), where a goroutine per shard applies operations
// serially, and internal/cluster, where a worker process does the same
// behind a socket. Options.Transport names the out-of-process host; every
// shard it leaves unclaimed runs on a Loopback.
//
// The contract:
//
//   - Submit operations return a wait function, so a caller can issue one
//     send per shard and then collect the acknowledgements — the
//     send-all-then-collect overlap that lets shards apply their sub-batches
//     concurrently, and the hook pipelined transports use to keep multiple
//     batches in flight.
//   - Per-entry ledger errors travel inside the reply ([]error, index-
//     aligned, nil when everything landed); host-level failures are the
//     second return and map onto the overlay's typed errors (a dead
//     connection or crashed core behaves like ErrShardDown, a lapsed
//     deadline like ErrTimeout).
//   - Crash/Restart/Mark/CompactWAL/ResetWAL are the shard lifecycle and
//     durability surface: the host owns the shard's WAL, so the coordinator
//     issues these as operations instead of touching files.
package manager

import (
	"time"

	"socialtrust/internal/rating"
)

// BatchEntry is one rating of a fault-mode sub-batch, carrying its
// per-delivery replica/deferred fate bits.
type BatchEntry struct {
	R        rating.Rating
	Replica  bool // targets the shard's replica mirror ledger
	Deferred bool // delayed delivery: applied at the next drain
}

// DrainSnapshots is one shard's answer to a drain: its primary interval
// snapshot and (fault-tolerant mode) the mirror of its predecessor's.
type DrainSnapshots struct {
	Primary    rating.Snapshot
	Replica    rating.Snapshot
	HasReplica bool
}

// ShardConn is one shard's endpoint. Implementations must be safe for
// concurrent use; the overlay drains all shards concurrently and submits from
// many goroutines. A host applies one shard's operations in arrival order.
type ShardConn interface {
	// SubmitPlain delivers a direct-mode sub-batch (primary ledger adds
	// only). The returned wait function blocks until the shard acknowledges —
	// there is no deadline, but a dead host must eventually fail the wait
	// rather than hang forever.
	SubmitPlain(rs []rating.Rating) func() ([]error, error)

	// SubmitEntries delivers a fault-mode sub-batch with per-entry fate bits.
	// timeout bounds the wait (zero means no deadline).
	SubmitEntries(entries []BatchEntry, timeout time.Duration) func() ([]error, error)

	// Drain flushes the shard's deferred submissions and returns its interval
	// snapshots. timeout bounds the wait (zero means no deadline).
	Drain(timeout time.Duration) (DrainSnapshots, error)

	// Crash kills the shard's incarnation: its interval ledgers are
	// discarded, its WAL survives.
	Crash() error

	// Restart installs a fresh incarnation, replaying the shard's primary
	// WAL records above floor and — with markRecovered set — its fated
	// records (replica mirror, deferred queues) above replicaFloor, with the
	// replayed sequence numbers registered for duplicate-ack dedupe. See
	// ShardCore.Restart.
	Restart(floor, replicaFloor uint64, markRecovered bool) error

	// Mark stamps an interval mark on the shard's WAL (fsync per policy).
	Mark(interval uint64) error

	// CompactWAL rotates the shard's WAL if every record is covered by
	// completed drains, coveredSeq being the shard's drained high-water mark.
	CompactWAL(coveredSeq uint64) error

	// ResetWAL discards the shard's WAL contents.
	ResetWAL() error
}

// Transport hosts shards. Start is called once from NewWithOptions — before
// any Shard endpoint is used — with the overlay geometry; Close is called
// from Overlay.Close.
type Transport interface {
	Start(numNodes int, replicated bool) error
	// Shard returns shard i's endpoint, or nil to leave the shard to the
	// in-process Loopback.
	Shard(i int) ShardConn
	Close() error
}
