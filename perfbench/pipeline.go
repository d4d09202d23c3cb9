package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"socialtrust/internal/cluster"
	"socialtrust/internal/core"
	"socialtrust/internal/interest"
	"socialtrust/internal/manager"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation"
	"socialtrust/internal/reputation/eigentrust"
	"socialtrust/internal/socialgraph"
)

// timedEngine wraps a reputation.Engine and times its Update calls from the
// outside. It wraps both the SocialTrust filter (whose Update includes the
// inner engine's) and the EigenTrust engine, so adjust time is the
// difference of the two. Update runs on the goroutine calling EndInterval,
// so the benchmark loop reads the fields after EndInterval returns without
// locking.
type timedEngine struct {
	reputation.Engine
	busy    time.Duration
	ratings int
	last    rating.Snapshot // the most recent snapshot, kept for replay
}

func (e *timedEngine) Update(s rating.Snapshot) {
	t := time.Now()
	e.Engine.Update(s)
	e.busy += time.Since(t)
	e.ratings += len(s.Ratings)
	e.last = s
}

// pipeline is one running deployment of the system under test.
type pipeline struct {
	w        workload
	wd       *world
	gen      *stream
	tracker  *interest.Tracker
	filter   *core.SocialTrust
	outer    *timedEngine // around the SocialTrust filter
	inner    *timedEngine // around EigenTrust
	overlay  *manager.Overlay
	opts     manager.Options
	pc       *cluster.ProcCluster
	stateDir string
	params   socialgraph.ClosenessParams
	cpu      *cpuClock // this process plus its workers
	// measureWAL makes runInterval read the on-disk WAL size at each
	// interval boundary, before compaction.
	measureWAL bool

	iv       int    // intervals run so far
	lastSeq  uint64 // ingest sequence high-water at the last interval boundary
	lastReps []float64
}

// buildPipeline generates w's population from seed and wires the full
// stack: SocialTrust around EigenTrust, a sharded manager overlay, and —
// per workload — shard WALs under stateDir and worker processes.
func buildPipeline(w workload, seed uint64, stateDir string, fullRecompute bool) (*pipeline, error) {
	wd := buildWorld(w, seed)
	p := &pipeline{
		w: w, wd: wd,
		gen:      newStream(w, wd, seed),
		tracker:  interest.NewTracker(w.nodes),
		stateDir: stateDir,
	}
	p.inner = &timedEngine{Engine: eigentrust.New(eigentrust.Config{NumNodes: w.nodes, Pretrusted: wd.pretrusted})}
	fc := core.Config{NumNodes: w.nodes, FullRecompute: fullRecompute}
	fc.Closeness.MaxPathHops = maxHops
	p.params = fc.Closeness
	p.filter = core.New(fc, wd.graph, wd.sets, p.tracker, p.inner)
	p.outer = &timedEngine{Engine: p.filter}

	if w.workers > 0 {
		pc, err := cluster.Spawn(cluster.SpawnOptions{
			Workers:  w.workers,
			Shards:   numShards,
			StateDir: filepath.Join(stateDir, "workers"),
		})
		if err != nil {
			return nil, err
		}
		p.pc = pc
		p.opts.Transport = pc.Client()
	} else if w.durable {
		p.opts.StateDir = filepath.Join(stateDir, "shards")
	}
	p.cpu = newCPUClock()
	o, err := manager.NewWithOptions(w.nodes, numShards, p.outer, p.opts)
	if err != nil {
		_ = p.close()
		return nil, err
	}
	p.overlay = o
	return p, nil
}

// close stops the overlay and any worker processes, waiting for them.
func (p *pipeline) close() error {
	if p.overlay != nil {
		p.overlay.Close()
	}
	if p.pc != nil {
		if err := p.pc.Close(); err != nil {
			return fmt.Errorf("stop workers: %w", err)
		}
		p.pc = nil
	}
	return nil
}

// intervalResult is the outside-in timing of one interval.
type intervalResult struct {
	ratings  int
	failed   int           // ratings SubmitBatch refused
	ingest   time.Duration // first SubmitBatch call to last acknowledgement
	calls    int           // SubmitBatch calls
	mutate   time.Duration // social-graph mutations
	record   time.Duration // interest.Tracker records
	endIv    time.Duration // EndInterval
	interval time.Duration // first SubmitBatch to EndInterval returning
	publish  time.Duration // EndInterval called until the new vector is queryable
	// CPU time the deployment used over interval and over publish.
	intervalCPU time.Duration
	publishCPU  time.Duration
	// wall and cpu span the whole interval, boundary upkeep included.
	wall     time.Duration
	cpu      time.Duration
	post     time.Duration // interval-boundary upkeep after publishing (WAL compaction)
	walBytes int64         // WAL bytes on disk before compaction (measureWAL only)
	core     time.Duration // SocialTrust Update (includes EigenTrust)
	eigen    time.Duration // EigenTrust Update
	input    intervalInput
	snap     rating.Snapshot
}

// runInterval drives one interval through the public API: SubmitBatch
// ingest, the interval's graph mutations and request records, EndInterval
// (drain, adjust, iterate, broadcast), and a query that confirms the new
// vector is served.
// afterEnd, when non-nil, is called as soon as EndInterval returns.
func (p *pipeline) runInterval(afterEnd func()) (intervalResult, error) {
	in := p.gen.next(p.iv)
	p.iv++
	res := intervalResult{ratings: len(in.ratings), input: in}
	core0, eigen0 := p.outer.busy, p.inner.busy

	cpu0 := p.cpu.now()
	start := time.Now()
	for lo := 0; lo < len(in.ratings); lo += batchSize {
		hi := min(lo+batchSize, len(in.ratings))
		for _, err := range p.overlay.SubmitBatch(in.ratings[lo:hi]) {
			if err != nil {
				res.failed++
			}
		}
		res.calls++
	}
	t := time.Now()
	res.ingest = t.Sub(start)
	for _, m := range in.mutations {
		p.wd.graph.AddRelationship(m[0], m[1], socialgraph.Relationship{Kind: socialgraph.Friendship})
	}
	t2 := time.Now()
	res.mutate = t2.Sub(t)
	for _, r := range in.records {
		p.tracker.Record(r.node, r.cat)
	}
	t3 := time.Now()
	res.record = t3.Sub(t2)
	cpu3 := p.cpu.now()
	reps := p.overlay.EndInterval()
	t4 := time.Now()
	cpu4 := p.cpu.now()
	if afterEnd != nil {
		afterEnd()
	}
	res.endIv = t4.Sub(t3)
	res.interval = t4.Sub(start)
	probe := p.iv % p.w.nodes
	v, err := p.overlay.Query(probe)
	res.publish = time.Since(t3)
	res.publishCPU = p.cpu.now() - cpu3
	res.intervalCPU = cpu4 - cpu0
	if err != nil {
		return res, fmt.Errorf("interval %d: publish query: %w", p.iv, err)
	}
	if v != reps[probe] {
		return res, fmt.Errorf("interval %d: node %d serves %v after publishing %v", p.iv, probe, v, reps[probe])
	}
	if p.measureWAL {
		res.walBytes = p.walBytes()
	}
	t5 := time.Now()
	if p.w.durable {
		// The interval boundary is the snapshot point: WAL records every
		// completed drain covers are compacted away, as a durable
		// deployment does after writing its snapshot.
		if err := p.overlay.CompactWALs(); err != nil {
			return res, fmt.Errorf("interval %d: compact WALs: %w", p.iv, err)
		}
	}
	res.post = time.Since(t5)
	res.wall = time.Since(start)
	res.cpu = p.cpu.now() - cpu0
	res.core = p.outer.busy - core0
	res.eigen = p.inner.busy - eigen0
	res.snap = p.outer.last
	p.lastSeq = p.gen.seq
	p.lastReps = reps
	return res, checkReputations(reps)
}

// recover stops the overlay in the middle of an interval — half of the
// interval's ratings acknowledged and journaled — then reopens it over the
// same WALs, resumes from the last interval boundary, and re-submits the
// whole interval, as a restarted producer would. It returns the reopen plus
// Resume time. The engine stays in memory, standing in for state restored
// from the boundary snapshot.
func (p *pipeline) recover() (time.Duration, error) {
	if p.opts.StateDir == "" {
		return 0, fmt.Errorf("recovery needs in-process shard WALs")
	}
	in := p.gen.next(p.iv)
	p.iv++
	half := in.ratings[:len(in.ratings)/2]
	for lo := 0; lo < len(half); lo += batchSize {
		for _, err := range p.overlay.SubmitBatch(half[lo:min(lo+batchSize, len(half))]) {
			if err != nil {
				return 0, fmt.Errorf("recovery: submit before stop: %w", err)
			}
		}
	}
	drained := p.overlay.DrainedSeqs()
	p.overlay.Close()

	start := time.Now()
	o, err := manager.NewWithOptions(p.w.nodes, numShards, p.outer, p.opts)
	if err != nil {
		return 0, fmt.Errorf("recovery: reopen: %w", err)
	}
	p.overlay = o
	if err := o.Resume(drained, p.lastSeq, p.lastReps); err != nil {
		return 0, fmt.Errorf("recovery: resume: %w", err)
	}
	took := time.Since(start)

	before := p.outer.ratings
	for lo := 0; lo < len(in.ratings); lo += batchSize {
		for _, err := range o.SubmitBatch(in.ratings[lo:min(lo+batchSize, len(in.ratings))]) {
			if err != nil {
				return 0, fmt.Errorf("recovery: re-submit: %w", err)
			}
		}
	}
	reps := o.EndInterval()
	if got := p.outer.ratings - before; got != len(in.ratings) {
		return 0, fmt.Errorf("recovery: engine received %d ratings for an interval of %d", got, len(in.ratings))
	}
	if err := o.CompactWALs(); err != nil {
		return 0, fmt.Errorf("recovery: compact WALs: %w", err)
	}
	p.lastSeq = p.gen.seq
	p.lastReps = reps
	return took, checkReputations(reps)
}

// walBytes sums the sizes of the WAL files under the pipeline's state
// directory — the shard WALs, or the workers' WALs in cluster mode.
func (p *pipeline) walBytes() int64 {
	var total int64
	_ = filepath.WalkDir(p.stateDir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".wal" {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
