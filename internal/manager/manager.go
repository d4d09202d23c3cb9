// Package manager implements the paper's resource-manager overlay
// (Section 4.3): "one or a number of trustworthy nodes function as resource
// managers. Each resource manager is responsible for collecting the ratings
// and calculating the global reputation of certain nodes."
//
// The overlay shards the peer population across managers by ratee ID. Each
// shard is one ShardCore — the ledgers, replica mirror, deferred queues and
// optional WAL of one manager — and the overlay reaches it only through a
// ShardConn. Two hosts implement that connection: the in-process Loopback,
// where one goroutine per shard applies operations serially, and the socket
// worker of internal/cluster, which does the same in another process. Peers
// submit ratings to the manager responsible for the ratee. At the end of
// each reputation-update interval the coordinator drains every shard's
// ledger, merges the snapshots, runs the (optionally SocialTrust-wrapped)
// reputation engine — the paper's periodic global reputation calculation —
// and publishes the fresh vector, from which every query is served.
//
// # Failure model
//
// The paper assumes managers are trustworthy and always available; this
// implementation drops the availability half of that assumption. With a
// fault plan installed (Options.Fault, see internal/fault), the overlay runs
// in fault-tolerant mode:
//
//   - every submission is mirrored to a replica ledger on the successor
//     shard (ratee's shard p primary, (p+1) mod k replica), so one shard
//     crash loses no interval data;
//   - submissions carry deadlines with bounded exponential-backoff retry,
//     and both submissions and queries fail over to the replica shard when
//     the primary is down or unreachable;
//   - EndInterval degrades gracefully: it drains whatever shards answer
//     within the drain deadline, substitutes replica mirrors for crashed
//     primaries, scores partial drains in manager_drain_partial_total, and
//     never blocks on a dead shard. Crashed shards rejoin at a later
//     interval boundary.
//
// Without a plan the overlay behaves exactly as the seed implementation
// (single ledger per shard, no mirroring, no timeouts) except that a dead
// shard yields typed ErrShardDown/ErrTimeout errors instead of deadlocking
// callers.
package manager

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"socialtrust/internal/fault"
	"socialtrust/internal/obs"
	"socialtrust/internal/obs/event"
	"socialtrust/internal/obs/span"
	"socialtrust/internal/persist"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation"
)

// Overlay metrics (recorded only while obs is enabled). Per-shard queue
// depth of in-process shards is exported as manager_mailbox_depth{shard="N"}
// gauges, refreshed by each Loopback host after every operation it applies.
var (
	mSubmitTotal  = obs.C("manager_submit_total")
	mSubmitErrors = obs.C("manager_submit_errors_total")
	mQueryTotal   = obs.C("manager_query_total")
	mDrainTotal   = obs.C("manager_drain_total")
	mSubmitLat    = obs.H("manager_submit_seconds")
	mQueryLat     = obs.H("manager_query_seconds")
	mBatchSize    = obs.H("manager_submit_batch_size", 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

	// Fault-tolerance metrics.
	mRetries      = obs.C("manager_submit_retries_total")
	mFailovers    = obs.C("manager_submit_failover_total")
	mCrashes      = obs.C("manager_shard_crashes_total")
	mRestarts     = obs.C("manager_shard_restarts_total")
	mDrainPartial = obs.C("manager_drain_partial_total")
	mDrainReplica = obs.C("manager_drain_replica_total")
	mShards       = obs.G("manager_shards")
	mShardsDown   = obs.G("manager_shards_down")

	// mActivePairs is the per-drain distribution of distinct active
	// (rater, ratee) pairs — the interval's activity footprint, the quantity
	// the incremental engine's cost is proportional to.
	mActivePairs = obs.H("manager_interval_active_pairs",
		1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144)
)

func init() {
	obs.Help("manager_submit_total", "Ratings accepted by the overlay (Submit and SubmitBatch).")
	obs.Help("manager_submit_errors_total", "Rating submissions rejected or failed after retries.")
	obs.Help("manager_query_total", "Reputation queries served by the overlay.")
	obs.Help("manager_drain_total", "Update-interval drains executed (EndInterval calls).")
	obs.Help("manager_drain_seconds", "Wall time of one update-interval drain (collection, merge, engine update, publication).")
	obs.Help("manager_submit_seconds", "Latency of one Submit or SubmitBatch call.")
	obs.Help("manager_query_seconds", "Latency of one reputation query.")
	obs.Help("manager_submit_batch_size", "Per-shard batch sizes delivered by SubmitBatch.")
	obs.Help("manager_mailbox_depth", "Pending operations in each in-process shard's queue.")
	obs.Help("manager_submit_retries_total", "Submission delivery retries after timeouts.")
	obs.Help("manager_submit_failover_total", "Submissions redirected to the replica holder of a crashed shard.")
	obs.Help("manager_shard_crashes_total", "Shard crashes injected or observed.")
	obs.Help("manager_shard_restarts_total", "Crashed shards restarted at interval boundaries.")
	obs.Help("manager_drain_partial_total", "Interval drains that lost at least one shard's ratings.")
	obs.Help("manager_drain_replica_total", "Shard intervals recovered from replica mirrors during a drain.")
	obs.Help("manager_shards", "Shards in the overlay (set once at construction).")
	obs.Help("manager_shards_down", "Shards currently crashed and awaiting restart.")
	obs.Help("manager_interval_active_pairs", "Distinct active rater-ratee pairs per interval drain.")
}

// shard is the overlay's handle on one manager slot: its host connection
// and the one down flag crash and restart flip.
type shard struct {
	conn ShardConn
	down atomic.Bool
}

// Options tunes the overlay's fault-tolerance machinery. The zero Options
// reproduces the seed overlay: no replication, no timeouts, no fault plan.
type Options struct {
	// Fault installs a fault-injection plan (message drops/delays/
	// duplication and shard crash/restart schedules). A non-nil plan —
	// even one injecting nothing, see fault.Config.AlwaysOn — switches the
	// overlay into fault-tolerant mode: replica mirroring, retry/failover
	// on Submit and Query, and drain-deadline degradation in EndInterval.
	Fault *fault.Plan

	// SubmitTimeout bounds one submission delivery attempt (default 5ms);
	// DrainTimeout one shard's drain in EndInterval (default 100ms).
	SubmitTimeout time.Duration
	DrainTimeout  time.Duration

	// RetryAttempts is the per-target delivery attempt budget (default 3);
	// RetryBackoff the base sleep between attempts, doubling each retry
	// (default 200µs).
	RetryAttempts int
	RetryBackoff  time.Duration

	// StateDir enables the durability layer: each in-process shard journals
	// to <StateDir>/shard-<i>.wal before acknowledging a submission, and the
	// overlay exposes the crash-restart recovery surface (DrainedSeqs,
	// Resume, CompactWALs). Empty disables persistence.
	StateDir string
	// Persist tunes the shard WALs (fsync policy).
	Persist persist.Options

	// Transport, when non-nil, hosts shards out of process: each shard it
	// claims (Shard(i) != nil) is driven over the wire instead of by the
	// in-process Loopback. Those shards own their WALs — StateDir, if also
	// set, applies only to the shards left in process — and the overlay
	// keeps every shard's drained high-water marks, so replay floors travel
	// with the Restart operation. See internal/cluster for the socket
	// implementation.
	Transport Transport
}

func (o Options) withDefaults() Options {
	if o.SubmitTimeout <= 0 {
		o.SubmitTimeout = 5 * time.Millisecond
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 100 * time.Millisecond
	}
	if o.RetryAttempts <= 0 {
		o.RetryAttempts = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 200 * time.Microsecond
	}
	return o
}

// Overlay is a running resource-manager overlay.
type Overlay struct {
	numNodes  int
	shards    []*shard
	engine    reputation.Engine
	opts      Options
	plan      *fault.Plan // nil = seed behavior
	loopback  *Loopback   // hosts every shard the transport leaves unclaimed
	transport Transport   // nil = every shard in process

	mu     sync.Mutex                // guards engine updates, shard lifecycle, and Close
	reps   atomic.Pointer[[]float64] // published vector; every query is served from it
	closed chan struct{}
	once   sync.Once

	// Durability bookkeeping (nil without Options.StateDir or a transport),
	// guarded by mu: per shard, the max ingest sequence of the primary data
	// (drainedSeq) and of the replica snapshot (replicaSeq) completed drains
	// covered — the replay floors Restart carries — and the interval counter
	// stamped on WAL marks.
	drainedSeq []uint64
	replicaSeq []uint64
	intervals  uint64
}

// Typed overlay errors.
var (
	// ErrClosed is returned by operations on a closed overlay.
	ErrClosed = errors.New("manager: overlay is closed")
	// ErrShardDown is returned when the responsible shard (and, in
	// fault-tolerant mode, its replica) has crashed.
	ErrShardDown = errors.New("manager: shard is down")
	// ErrTimeout is returned when a request's context deadline lapsed
	// before the shard acknowledged it (including simulated-time loss of a
	// dropped message under fault injection).
	ErrTimeout = errors.New("manager: request timed out")
)

// New starts an overlay of numManagers in-process managers fronting the
// given reputation engine. The engine may be a bare baseline or a
// SocialTrust-wrapped one; the overlay treats it as the global reputation
// calculation of the paper's design.
func New(numNodes, numManagers int, engine reputation.Engine) (*Overlay, error) {
	return NewWithOptions(numNodes, numManagers, engine, Options{})
}

// NewWithOptions starts an overlay with explicit fault-tolerance, durability
// and hosting options.
func NewWithOptions(numNodes, numManagers int, engine reputation.Engine, opts Options) (*Overlay, error) {
	if numNodes <= 0 {
		return nil, fmt.Errorf("manager: numNodes must be positive")
	}
	if numManagers <= 0 || numManagers > numNodes {
		return nil, fmt.Errorf("manager: numManagers %d invalid for %d nodes", numManagers, numNodes)
	}
	if engine == nil {
		return nil, fmt.Errorf("manager: engine is required")
	}
	if opts.Fault != nil && opts.Fault.Shards() != numManagers {
		return nil, fmt.Errorf("manager: fault plan built for %d shards, overlay has %d",
			opts.Fault.Shards(), numManagers)
	}
	o := &Overlay{
		numNodes:  numNodes,
		engine:    engine,
		opts:      opts.withDefaults(),
		plan:      opts.Fault,
		transport: opts.Transport,
		loopback:  NewLoopback(numManagers, opts.StateDir, opts.Persist),
		closed:    make(chan struct{}),
	}
	o.publish(engine.Reputations())
	if opts.StateDir != "" || o.transport != nil {
		o.drainedSeq = make([]uint64, numManagers)
		o.replicaSeq = make([]uint64, numManagers)
	}
	conns := make([]ShardConn, numManagers)
	if o.transport != nil {
		if err := o.transport.Start(numNodes, o.replicated()); err != nil {
			return nil, fmt.Errorf("manager: transport start: %w", err)
		}
		for i := range conns {
			conns[i] = o.transport.Shard(i)
		}
	}
	// The one hosting branch: shards the transport leaves unclaimed run on
	// the loopback.
	if err := o.loopback.start(numNodes, o.replicated(), func(i int) bool { return conns[i] != nil }); err != nil {
		if o.transport != nil {
			_ = o.transport.Close()
		}
		return nil, err
	}
	for i := range conns {
		if conns[i] == nil {
			conns[i] = o.loopback.Shard(i)
		}
		o.shards = append(o.shards, &shard{conn: conns[i]})
	}
	mShards.Set(float64(numManagers))
	mShardsDown.Set(0)
	return o, nil
}

// replicated reports whether replica mirroring is active.
func (o *Overlay) replicated() bool { return o.plan != nil }

// publish installs a copy of reps as the vector queries are served from.
func (o *Overlay) publish(reps []float64) {
	vec := append([]float64(nil), reps...)
	o.reps.Store(&vec)
}

// ManagerOf returns the manager index responsible for a node.
func (o *Overlay) ManagerOf(node int) int { return node % len(o.shards) }

// replicaOf returns the shard holding node's replica mirror.
func (o *Overlay) replicaOf(primary int) int { return (primary + 1) % len(o.shards) }

// NumManagers reports the overlay size.
func (o *Overlay) NumManagers() int { return len(o.shards) }

// downOrClosed maps a dead-shard signal to the right typed error: Close
// also stops the hosts, and callers racing it should see ErrClosed, not
// ErrShardDown.
func (o *Overlay) downOrClosed() error {
	select {
	case <-o.closed:
		return ErrClosed
	default:
		return ErrShardDown
	}
}

// unreachable reports why shard s cannot take an operation right now —
// ErrClosed after Close, ErrShardDown while it is down — or nil.
func (o *Overlay) unreachable(s int) error {
	select {
	case <-o.closed:
		return ErrClosed
	default:
	}
	if o.shards[s].down.Load() {
		return ErrShardDown
	}
	return nil
}

// connErr maps a host-level failure onto the overlay's typed errors:
// deadlines stay ErrTimeout (retryable), everything else — a crashed core, a
// dead connection — is ErrShardDown, or ErrClosed when the overlay itself is
// shutting down.
func (o *Overlay) connErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrTimeout):
		return ErrTimeout
	case errors.Is(err, ErrClosed):
		return ErrClosed
	}
	return o.downOrClosed()
}

// validate rejects a rating no shard may see: the ledger panics on
// out-of-range node IDs, and self-ratings are refused.
func (o *Overlay) validate(r rating.Rating) error {
	switch {
	case r.Ratee < 0 || r.Ratee >= o.numNodes:
		return fmt.Errorf("manager: ratee %d out of range", r.Ratee)
	case r.Rater < 0 || r.Rater >= o.numNodes:
		return fmt.Errorf("manager: rater %d out of range", r.Rater)
	case r.Rater == r.Ratee:
		return fmt.Errorf("rating: self-rating by node %d rejected", r.Rater)
	}
	return nil
}

// Submit routes one rating to the ratee's manager: a SubmitBatch of one.
// Safe for concurrent use. Returns ErrClosed after Close, ErrShardDown when
// the responsible shard (and, in fault-tolerant mode, its replica) has
// crashed, and ErrTimeout when delivery attempts exhausted their deadlines.
func (o *Overlay) Submit(r rating.Rating) error {
	if errs := o.SubmitBatch([]rating.Rating{r}); errs != nil {
		return errs[0]
	}
	return nil
}

// SubmitBatch routes many ratings at once, grouping them by responsible
// shard and delivering one batch per shard. Every rating is validated at
// entry. Replica mirroring and fault-plan verdicts (drop / delay /
// duplicate) are drawn and applied per rating, each shard's in rating
// order. The returned slice is index-aligned with rs; a nil return means
// every rating landed. Safe for concurrent use.
func (o *Overlay) SubmitBatch(rs []rating.Rating) []error {
	if len(rs) == 0 {
		return nil
	}
	sp := mSubmitLat.Start()
	tsp := span.Ambient("manager.submit_batch", span.PhaseIngest).SetInt("ratings", int64(len(rs)))
	var errs []error
	if o.plan != nil {
		errs = o.submitBatchFT(rs, tsp.Context())
	} else {
		errs = o.submitBatchDirect(rs, tsp.Context())
	}
	tsp.End()
	sp.End()
	mSubmitTotal.Add(int64(len(rs)))
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	mSubmitErrors.Add(int64(failed))
	if failed == 0 {
		return nil
	}
	return errs
}

// submitBatchDirect is the plain batched path: counting-sort the ratings
// into one contiguous arena grouped by shard, send every shard its
// sub-batch, then collect the acks — the sends all land before the first ack
// wait, so the shards apply their batches concurrently. The error slice is
// allocated only when something actually fails, so the all-landed common
// case costs two arena allocations plus one round trip per shard.
func (o *Overlay) submitBatchDirect(rs []rating.Rating, tctx span.Context) []error {
	var errs []error
	fail := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(rs))
		}
		errs[i] = err
	}
	k := len(o.shards)
	starts := make([]int, k+1)
	for i := range rs {
		if err := o.validate(rs[i]); err != nil {
			fail(i, err)
			continue
		}
		starts[o.ManagerOf(rs[i].Ratee)+1]++
	}
	for s := 0; s < k; s++ {
		starts[s+1] += starts[s]
	}
	total := starts[k]
	if total == 0 {
		return errs
	}
	// arena[starts[s]:starts[s+1]] is shard s's sub-batch; idx maps each
	// arena slot back to its position in rs for error reporting.
	arena := make([]rating.Rating, total)
	idx := make([]int, total)
	fill := append([]int(nil), starts[:k]...)
	for i := range rs {
		if errs != nil && errs[i] != nil {
			continue
		}
		s := o.ManagerOf(rs[i].Ratee)
		arena[fill[s]] = rs[i]
		idx[fill[s]] = i
		fill[s]++
	}
	waits := make([]func() ([]error, error), k)
	spans := make([]*span.Active, k)
	for s := 0; s < k; s++ {
		lo, hi := starts[s], starts[s+1]
		if lo == hi {
			continue
		}
		mBatchSize.Observe(float64(hi - lo))
		if err := o.unreachable(s); err != nil {
			failGroup(&errs, len(rs), idx[lo:hi], err)
			continue
		}
		spans[s] = deliverSpan(tctx, s, hi-lo)
		waits[s] = o.shards[s].conn.SubmitPlain(arena[lo:hi])
	}
	for s := 0; s < k; s++ {
		if waits[s] == nil {
			continue
		}
		lo, hi := starts[s], starts[s+1]
		res, err := waits[s]()
		spans[s].End()
		if err != nil {
			failGroup(&errs, len(rs), idx[lo:hi], o.connErr(err))
			continue
		}
		for x, e := range res { // nil res = whole sub-batch landed
			if e != nil {
				fail(idx[lo+x], e)
			}
		}
	}
	return errs
}

// deliverSpan opens the span of one shard's sub-batch delivery, from send to
// acknowledgement.
func deliverSpan(tctx span.Context, s, entries int) *span.Active {
	return span.From(tctx, "shard.deliver_batch", span.PhaseIngest).
		SetInt("shard", int64(s)).SetInt("entries", int64(entries))
}

// failGroup stamps one error on every listed slot, allocating the
// index-aligned error slice on first use.
func failGroup(errs *[]error, n int, idxs []int, err error) {
	if *errs == nil {
		*errs = make([]error, n)
	}
	for _, i := range idxs {
		(*errs)[i] = err
	}
}

// batchDelivery is one pending per-rating delivery of a fault-tolerant
// batch: a (rating, target shard, replica?) triple plus its latest outcome.
type batchDelivery struct {
	idx     int // index into the SubmitBatch input
	shard   int
	replica bool
	err     error
}

// submitBatchFT is the fault-tolerant batched path. Every valid rating
// expands to a primary delivery plus (on multi-shard overlays) a replica
// mirror; the deliveries then run in retry rounds — one batch per shard per
// round, each delivery drawing its own fault verdict — until they land, fail
// hard, or exhaust the attempt budget. A dead primary with a live mirror is
// a failover, not an error.
func (o *Overlay) submitBatchFT(rs []rating.Rating, tctx span.Context) []error {
	errs := make([]error, len(rs))
	dels := make([]batchDelivery, 0, 2*len(rs))
	hasReplica := make([]bool, len(rs))
	for i, r := range rs {
		if errs[i] = o.validate(r); errs[i] != nil {
			continue
		}
		p := o.ManagerOf(r.Ratee)
		dels = append(dels, batchDelivery{idx: i, shard: p})
		if rep := o.replicaOf(p); rep != p {
			dels = append(dels, batchDelivery{idx: i, shard: rep, replica: true})
			hasReplica[i] = true
		}
	}
	pending := make([]int, len(dels))
	for d := range dels {
		pending[d] = d
	}
	backoff := o.opts.RetryBackoff
	for attempt := 0; attempt < o.opts.RetryAttempts && len(pending) > 0; attempt++ {
		if attempt > 0 {
			mRetries.Add(int64(len(pending)))
			time.Sleep(backoff)
			backoff *= 2
		}
		pending = o.deliverBatchRound(rs, dels, pending, tctx)
	}
	primary := make([]error, len(rs))
	replica := make([]error, len(rs))
	for _, d := range dels {
		if d.replica {
			replica[d.idx] = d.err
		} else {
			primary[d.idx] = d.err
		}
	}
	for i := range rs {
		if errs[i] != nil {
			continue // failed validation; never delivered
		}
		pErr := primary[i]
		rErr := pErr // single-shard overlay has no distinct replica
		if hasReplica[i] {
			rErr = replica[i]
		}
		switch {
		case pErr == nil:
		case errors.Is(pErr, ErrClosed):
			errs[i] = pErr
		case rErr == nil:
			// Primary unreachable but the replica holds the rating; the
			// next drain recovers it from the mirror.
			mFailovers.Inc()
		default:
			errs[i] = pErr
		}
	}
	return errs
}

// deliverBatchRound runs one delivery attempt for every pending delivery,
// one batch per shard, and returns the deliveries still worth retrying (lost
// in transit or timed out at the ack deadline). Hard failures — shard down,
// overlay closed, ledger rejection — are final and stay out of the next
// round.
func (o *Overlay) deliverBatchRound(rs []rating.Rating, dels []batchDelivery, pending []int, tctx span.Context) []int {
	byShard := make([][]int, len(o.shards))
	for _, di := range pending {
		byShard[dels[di].shard] = append(byShard[dels[di].shard], di)
	}
	var still []int
	for s := range o.shards {
		group := byShard[s]
		if len(group) == 0 {
			continue
		}
		// The down check precedes the verdict draws, so a down shard consumes
		// none of the plan's random stream.
		if err := o.unreachable(s); err != nil {
			for _, di := range group {
				dels[di].err = err
			}
			continue
		}
		// Draw each delivery's fate from the plan, per rating, and assemble
		// the surviving entries. slots maps batch entries back to
		// deliveries; a duplicate-injected copy gets slot -1 (its ack is
		// deliberately ignored, fire-and-forget).
		batch := make([]BatchEntry, 0, len(group))
		slots := make([]int, 0, len(group))
		for _, di := range group {
			d := &dels[di]
			v := o.plan.DeliveryVerdict(s)
			if v.Drop {
				// Lost in transit: the ack deadline lapses in simulated
				// time — returning immediately, so high drop rates do not
				// stall the run on wall-clock sleeps — and the delivery
				// stays retryable.
				d.err = ErrTimeout
				still = append(still, di)
				continue
			}
			batch = append(batch, BatchEntry{R: rs[d.idx], Replica: d.replica, Deferred: v.Delay})
			slots = append(slots, di)
			if v.Duplicate {
				batch = append(batch, BatchEntry{R: rs[d.idx], Replica: d.replica, Deferred: v.Delay})
				slots = append(slots, -1)
			}
		}
		if len(batch) == 0 {
			continue
		}
		mBatchSize.Observe(float64(len(batch)))
		tsp := deliverSpan(tctx, s, len(batch))
		res, err := o.shards[s].conn.SubmitEntries(batch, o.opts.SubmitTimeout)()
		tsp.End()
		err = o.connErr(err)
		for x, di := range slots {
			switch {
			case di < 0:
			case err != nil:
				dels[di].err = err
				if errors.Is(err, ErrTimeout) {
					still = append(still, di)
				}
			case res == nil:
				// The whole sub-batch landed; clear any error left over from
				// an earlier dropped or timed-out attempt.
				dels[di].err = nil
			default:
				dels[di].err = res[x]
			}
		}
	}
	return still
}

// Reputation returns node's current global reputation. Safe for concurrent
// use; returns 0 after Close or when the shard is unreachable (use Query for
// the typed error).
func (o *Overlay) Reputation(node int) float64 {
	v, _ := o.Query(node)
	return v
}

// Query returns node's reputation from the published vector, on behalf of
// the node's manager. In fault-tolerant mode a down primary fails over to
// the replica shard. Returns ErrShardDown when no responsible shard is up,
// ErrClosed after Close.
func (o *Overlay) Query(node int) (float64, error) {
	if node < 0 || node >= o.numNodes {
		return 0, fmt.Errorf("manager: node %d out of range", node)
	}
	sp := mQueryLat.Start()
	defer func() {
		sp.End()
		mQueryTotal.Inc()
	}()
	p := o.ManagerOf(node)
	err := o.unreachable(p)
	if rep := o.replicaOf(p); err != nil && o.plan != nil && !errors.Is(err, ErrClosed) && rep != p {
		err = o.unreachable(rep)
	}
	if err != nil {
		return 0, err
	}
	return (*o.reps.Load())[node], nil
}

// DrainStatus reports how one EndInterval degraded under faults.
type DrainStatus struct {
	// Drained counts shards whose primary snapshot arrived; ReplicaUsed
	// lists shards recovered from their successor's mirror; Missing lists
	// shards whose interval data was lost outright (primary and replica
	// both unreachable).
	Drained     int
	ReplicaUsed []int
	Missing     []int
	// Partial is true when any shard's data was lost (Missing non-empty):
	// the update proceeded on the surviving quorum.
	Partial bool
	// Crashed and Restarted list the shard transitions the fault plan
	// applied at this interval boundary.
	Crashed   []int
	Restarted []int
}

// EndInterval performs the paper's periodic global reputation update: it
// drains every manager's shard, merges the snapshots in deterministic
// order, feeds them to the engine (where a wrapped SocialTrust filter
// performs its B1–B4 adjustment), and publishes the new reputation vector.
// Returns the updated vector.
func (o *Overlay) EndInterval() []float64 {
	reps, _ := o.EndIntervalStatus()
	return reps
}

// EndIntervalStatus is EndInterval plus the drain's degradation report.
// Under a fault plan it applies the interval's scheduled crashes first
// (losing those shards' primary interval ledgers), drains the survivors
// within the drain deadline, substitutes replica mirrors for crashed
// primaries, and restarts shards whose outage ended. It never blocks on a
// dead shard.
func (o *Overlay) EndIntervalStatus() ([]float64, DrainStatus) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var status DrainStatus
	select {
	case <-o.closed:
		return make([]float64, o.numNodes), status
	default:
	}
	sp := obs.Start("manager.drain")
	defer func() {
		sp.End()
		mDrainTotal.Inc()
	}()
	rec := event.Current()
	var drainStart time.Time
	if rec != nil {
		drainStart = time.Now()
	}
	interval := 0
	// Phase 0 (fault mode): apply this interval's scheduled outages. A
	// crash at interval t loses the shard's interval-t primary ledger — the
	// replica mirror on its successor is the only surviving copy.
	if o.plan != nil {
		crashes, restarts := o.plan.BeginInterval()
		interval = o.plan.Interval()
		status.Crashed = crashes
		status.Restarted = restarts
		for _, s := range crashes {
			o.crashShardLocked(s)
			mCrashes.Inc()
			if rec != nil {
				rec.RecordManager(event.ManagerEvent{Kind: "crash", Shard: s, Interval: interval})
			}
		}
		// Restarts are applied after the drain below, so a rejoining shard
		// starts on the next interval.
		defer func() {
			for _, s := range restarts {
				o.restartShardLocked(s)
				mRestarts.Inc()
				if rec != nil {
					rec.RecordManager(event.ManagerEvent{Kind: "restart", Shard: s, Interval: interval})
				}
			}
		}()
	}
	// Phase 1: drain all reachable shards concurrently. The drain span covers
	// phases 1–2 (collection plus snapshot assembly and merge); the engine
	// update in phase 3 emits its own adjust/iterate spans.
	tsp := span.Ambient("manager.drain_shards", span.PhaseDrain).SetInt("shards", int64(len(o.shards)))
	tctx := tsp.Context()
	replies := make([]*DrainSnapshots, len(o.shards))
	var wg sync.WaitGroup
	for i := range o.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = o.drainShard(i, tctx)
		}(i)
	}
	wg.Wait()
	// Phase 2: assemble the interval's snapshots — primaries where they
	// arrived, replica mirrors where they did not — and merge. With
	// persistence on, each shard's drained high-water mark advances to the
	// max ingest sequence of whatever snapshot stood in for its data: WAL
	// records at or below the mark are covered by this (or an earlier) drain.
	o.intervals++
	snaps := make([]rating.Snapshot, 0, len(o.shards))
	for i := range o.shards {
		if replies[i] != nil {
			snaps = append(snaps, replies[i].Primary)
			o.noteDrained(i, replies[i].Primary.MaxSeq)
			o.noteReplicaDrained(i, replies[i].Replica.MaxSeq)
			status.Drained++
			continue
		}
		if j := o.replicaOf(i); o.replicated() && j != i && replies[j] != nil {
			snaps = append(snaps, replies[j].Replica)
			o.noteDrained(i, replies[j].Replica.MaxSeq)
			status.ReplicaUsed = append(status.ReplicaUsed, i)
			mDrainReplica.Inc()
			continue
		}
		status.Missing = append(status.Missing, i)
	}
	// A shard that failed its drain while not down is in an unknown state:
	// its host may still hold — or later replay — interval data this drain
	// just recovered through the mirror. Force a restart carrying the
	// post-drain floors, so the host discards its stale interval state and
	// rebuilds only the uncovered WAL tail. Then stamp (and, per the fsync
	// policy, sync) an interval mark on every live shard's WAL: the tail of
	// a completed interval must reach stable storage before the caller
	// snapshots against it.
	for i, s := range o.shards {
		if s.down.Load() {
			continue
		}
		if replies[i] == nil {
			floor, replicaFloor := o.floors(i)
			_ = s.conn.Restart(floor, replicaFloor, false)
		}
		if o.persistent() {
			_ = s.conn.Mark(o.intervals)
		}
	}
	if len(status.Missing) > 0 {
		status.Partial = true
		mDrainPartial.Inc()
	}
	merged := mergeSnapshots(snaps)
	mActivePairs.Observe(float64(len(merged.Counts)))
	tsp.SetInt("ratings", int64(len(merged.Ratings))).End()
	// Phase 3: global reputation calculation over the surviving quorum's
	// data. Nodes whose interval ratings were lost keep their last-known
	// engine reputation — the engine state is cumulative.
	o.engine.Update(merged)
	reps := o.engine.Reputations()
	// Phase 4: publish. Queries for every shard are served from this vector.
	o.publish(reps)
	if rec != nil {
		rec.RecordManager(event.ManagerEvent{
			Kind:     "drain",
			Shards:   len(o.shards),
			Ratings:  len(merged.Ratings),
			Seconds:  time.Since(drainStart).Seconds(),
			Interval: interval,
			Missing:  len(status.Missing),
			Replicas: len(status.ReplicaUsed),
			Partial:  status.Partial,
		})
	}
	return reps, status
}

// drainShard drains one shard, bounded by the drain deadline in fault mode.
// Returns nil when the shard is down or unreachable.
func (o *Overlay) drainShard(i int, tctx span.Context) *DrainSnapshots {
	if o.shards[i].down.Load() {
		return nil
	}
	var timeout time.Duration
	if o.plan != nil {
		timeout = o.opts.DrainTimeout
	}
	tsp := span.From(tctx, "shard.drain", span.PhaseDrain).SetInt("shard", int64(i))
	ds, err := o.shards[i].conn.Drain(timeout)
	tsp.End()
	if err != nil {
		return nil
	}
	return &ds
}

// crashShardLocked marks the shard down and crashes its core, losing its
// interval ledgers. Callers hold o.mu. Idempotent on already-down shards.
func (o *Overlay) crashShardLocked(i int) {
	s := o.shards[i]
	if s.down.Swap(true) {
		return
	}
	_ = s.conn.Crash()
	mShardsDown.Add(1)
}

// restartShardLocked brings a down shard back: a fresh incarnation that
// replays its recoverable WAL tail — records above its drained high-water
// mark — so a WAL-backed shard crash loses nothing that was acknowledged
// (the replica mirror alone can miss replica-dropped deliveries). Callers
// hold o.mu. A live shard is left untouched.
func (o *Overlay) restartShardLocked(i int) {
	s := o.shards[i]
	if !s.down.Load() {
		return
	}
	floor, replicaFloor := o.floors(i)
	_ = s.conn.Restart(floor, replicaFloor, false)
	s.down.Store(false)
	mShardsDown.Add(-1)
}

// crashShard is the test hook for crashing one shard outside a fault plan.
func (o *Overlay) crashShard(i int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.crashShardLocked(i)
}

// mergeSnapshots combines per-shard interval snapshots into one, restoring
// the deterministic global ordering rating.Ledger guarantees. Nil or empty
// entries — the partial-drain path, where a shard's snapshot never arrived —
// contribute nothing.
func mergeSnapshots(snaps []rating.Snapshot) rating.Snapshot {
	out := rating.Snapshot{Counts: make(map[rating.PairKey]rating.PairCounts)}
	for _, s := range snaps {
		if len(s.Ratings) == 0 && len(s.Counts) == 0 {
			continue
		}
		out.Ratings = append(out.Ratings, s.Ratings...)
		for k, c := range s.Counts {
			agg := out.Counts[k]
			agg.Positive += c.Positive
			agg.Negative += c.Negative
			out.Counts[k] = agg
		}
	}
	sort.SliceStable(out.Ratings, func(a, b int) bool {
		x, y := out.Ratings[a], out.Ratings[b]
		switch {
		case x.Ratee != y.Ratee:
			return x.Ratee < y.Ratee
		case x.Rater != y.Rater:
			return x.Rater < y.Rater
		case x.Cycle != y.Cycle:
			return x.Cycle < y.Cycle
		case x.Category != y.Category:
			return x.Category < y.Category
		default:
			return x.Value < y.Value
		}
	})
	return out
}

// Close shuts the overlay down. Close is idempotent and safe to race
// against in-flight calls: Submit returns ErrClosed, queries return 0, and
// EndInterval returns a zero vector once the overlay is closed. Ratings
// still queued at in-process shards at close time are dropped.
func (o *Overlay) Close() {
	o.once.Do(func() {
		o.mu.Lock()
		defer o.mu.Unlock()
		close(o.closed)
		_ = o.loopback.Close()
		if o.transport != nil {
			_ = o.transport.Close()
		}
	})
}
