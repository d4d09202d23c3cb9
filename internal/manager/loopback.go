package manager

import (
	"strconv"
	"sync"
	"time"

	"socialtrust/internal/obs"
	"socialtrust/internal/persist"
	"socialtrust/internal/rating"
)

// Loopback is the in-process Transport. Each shard it hosts is a ShardCore
// driven by its own goroutine, which applies the shard's operations serially
// in arrival order. It is the in-process twin of a cluster worker's
// per-shard queue. NewWithOptions hosts every shard that Options.Transport
// leaves unclaimed (all of them without a transport) on a Loopback.
type Loopback struct {
	stateDir string
	persist  persist.Options
	hosts    []*loopHost // nil for shards hosted elsewhere
	closed   chan struct{}
	once     sync.Once
	wg       sync.WaitGroup
}

// NewLoopback builds an in-process transport for numShards shards. A
// non-empty stateDir gives each hosted shard a WAL under it. Start hosts the
// shards.
func NewLoopback(numShards int, stateDir string, opts persist.Options) *Loopback {
	return &Loopback{
		stateDir: stateDir,
		persist:  opts,
		hosts:    make([]*loopHost, numShards),
		closed:   make(chan struct{}),
	}
}

// Start hosts every shard. Part of Transport.
func (l *Loopback) Start(numNodes int, replicated bool) error {
	return l.start(numNodes, replicated, func(int) bool { return false })
}

// start opens a core and its goroutine for every shard elsewhere does not
// claim.
func (l *Loopback) start(numNodes int, replicated bool, elsewhere func(i int) bool) error {
	for i := range l.hosts {
		if elsewhere(i) {
			continue
		}
		core, err := OpenShardCore(i, numNodes, replicated, l.stateDir, l.persist)
		if err != nil {
			_ = l.Close()
			return err
		}
		h := &loopHost{
			core: core,
			// Room for one in-flight batch from many concurrent submitters,
			// so senders rarely wait on the channel itself.
			ops:    make(chan func(), 256),
			closed: l.closed,
			depth:  obs.G(obs.Label("manager_mailbox_depth", "shard", strconv.Itoa(i))),
		}
		l.hosts[i] = h
		l.wg.Add(1)
		go h.serve(&l.wg)
	}
	return nil
}

// Shard returns shard i's endpoint, or nil when the shard is not hosted
// here. Part of Transport.
func (l *Loopback) Shard(i int) ShardConn {
	if l.hosts[i] == nil {
		return nil
	}
	return l.hosts[i]
}

// Close stops every host goroutine once its current operation finishes,
// then closes the WALs. Operations still queued are dropped, and their
// callers get ErrClosed. Part of Transport; idempotent.
func (l *Loopback) Close() error {
	var err error
	l.once.Do(func() {
		close(l.closed)
		l.wg.Wait()
		for _, h := range l.hosts {
			if h == nil {
				continue
			}
			if cerr := h.core.Close(); err == nil {
				err = cerr
			}
		}
	})
	return err
}

// loopHost is one hosted shard: the ShardConn the overlay drives, and the
// goroutine that owns the core.
type loopHost struct {
	core   *ShardCore
	ops    chan func()
	closed <-chan struct{}
	depth  *obs.Gauge // queued operations after the last one applied
}

func (h *loopHost) serve(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case <-h.closed:
			return
		case op := <-h.ops:
			op()
			h.depth.Set(float64(len(h.ops)))
		}
	}
}

// call queues fn on the host goroutine and returns the wait for its result.
// One deadline bounds the queueing and the wait together; zero means none.
// A caller that gives up never blocks the host: the reply channel is
// buffered.
func call[T any](h *loopHost, timeout time.Duration, fn func(*ShardCore) (T, error)) func() (T, error) {
	type result struct {
		v   T
		err error
	}
	var deadline <-chan time.Time
	var timer *time.Timer
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		deadline = timer.C
	}
	fail := func(err error) (T, error) {
		if timer != nil {
			timer.Stop()
		}
		var zero T
		return zero, err
	}
	done := make(chan result, 1)
	select {
	case h.ops <- func() { v, err := fn(h.core); done <- result{v, err} }:
	case <-h.closed:
		return func() (T, error) { return fail(ErrClosed) }
	case <-deadline:
		return func() (T, error) { return fail(ErrTimeout) }
	}
	return func() (T, error) {
		select {
		case r := <-done:
			if timer != nil {
				timer.Stop()
			}
			return r.v, r.err
		case <-h.closed:
			return fail(ErrClosed)
		case <-deadline:
			return fail(ErrTimeout)
		}
	}
}

// do runs a status-only operation to completion with no deadline.
func (h *loopHost) do(fn func(*ShardCore) error) error {
	_, err := call(h, 0, func(c *ShardCore) (struct{}, error) { return struct{}{}, fn(c) })()
	return err
}

func (h *loopHost) SubmitPlain(rs []rating.Rating) func() ([]error, error) {
	return call(h, 0, func(c *ShardCore) ([]error, error) { return c.AddPlain(rs) })
}

func (h *loopHost) SubmitEntries(entries []BatchEntry, timeout time.Duration) func() ([]error, error) {
	return call(h, timeout, func(c *ShardCore) ([]error, error) { return c.AddEntries(entries) })
}

func (h *loopHost) Drain(timeout time.Duration) (DrainSnapshots, error) {
	return call(h, timeout, (*ShardCore).Drain)()
}

func (h *loopHost) Crash() error {
	return h.do(func(c *ShardCore) error { c.Crash(); return nil })
}

func (h *loopHost) Restart(floor, replicaFloor uint64, markRecovered bool) error {
	return h.do(func(c *ShardCore) error { return c.Restart(floor, replicaFloor, markRecovered) })
}

func (h *loopHost) Mark(interval uint64) error {
	return h.do(func(c *ShardCore) error { return c.Mark(interval) })
}

func (h *loopHost) CompactWAL(coveredSeq uint64) error {
	return h.do(func(c *ShardCore) error { return c.CompactWAL(coveredSeq) })
}

func (h *loopHost) ResetWAL() error { return h.do((*ShardCore).ResetWAL) }
