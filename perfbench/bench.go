package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"socialtrust/internal/interest"
	"socialtrust/internal/obs"
	"socialtrust/internal/obs/span"
	"socialtrust/internal/rating"
	"socialtrust/internal/socialgraph"
)

// runConfig is one benchmark run.
type runConfig struct {
	w       workload
	seed    uint64
	seconds float64 // measured window length
	// intervals, when positive, measures exactly this many intervals
	// instead of running for seconds (tests pin digests this way).
	intervals     int
	traced        bool
	setups        int  // set-up repetitions; the last one is measured
	recoveries    int  // mid-interval stop/reopen cycles after the window (in-process durable workloads)
	fullRecompute bool // core.Config.FullRecompute reference mode
	workDir       string
}

// metric is one reported figure.
type metric struct {
	name  string
	unit  string
	value float64
}

// runResult is everything a run reports.
type runResult struct {
	correct   bool
	problems  []string
	attempted int
	failed    int
	digest    string
	metrics   []metric
	samples   map[string]int // sample count behind each percentile
	reconcile []reconRow     // traced runs only
}

// reconRow compares one pipeline phase's outside-in time with the time the
// program's span recorder attributes to it, per traced interval.
type reconRow struct {
	phase        string
	outside, spn float64
}

// add records a metric. JSON has no infinities: +Inf — a latency
// percentile reached by failed queries — is reported as the largest float,
// and NaN, which only a run without samples produces, fails the run.
func (r *runResult) add(name, unit string, v float64) {
	switch {
	case math.IsInf(v, 1):
		v = math.MaxFloat64
	case math.IsNaN(v) || math.IsInf(v, -1):
		r.fail("metric %s has no value", name)
		v = 0
	}
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *runResult) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// blockSpan is the least interval time a block of consecutive intervals
// spans for the block-median figures.
const blockSpan = 0.5

// spanCapacity bounds the span ring of traced blocks; only the per-trace
// phase ledger is read, so the ring merely has to exist.
const spanCapacity = 4096

// layerAcc accumulates the outside-in layer figures of traced intervals.
type layerAcc struct {
	intervals   int
	ratings     int
	submitCalls int
	ingest      time.Duration
	endIv       time.Duration
	core        time.Duration
	eigen       time.Duration
	mutate      time.Duration
	record      time.Duration
	walBytes    int64
	pairs       int
	adjusted    int
	spanIngest  float64
	spanDrain   float64
	spanAdjust  float64
	spanIterate float64
	spanTotals  int
	durTraced   []float64
	misses      int64 // pairs that missed the filter's signal cache

	// Replays of sampled traced intervals through the layers' public
	// functions, outside the timed window.
	replays      int
	closeCalls   float64
	timedTargets int
	closeTime    time.Duration
	reachNodes   float64
	simPairs     int
	simTime      time.Duration
	ledgerRates  int
	ledgerTime   time.Duration
}

// run executes one benchmark run of cfg.
func run(cfg runConfig) (*runResult, error) {
	res := &runResult{correct: true, samples: map[string]int{}}
	w := cfg.w

	// Set up several times from the same seed and measure the last
	// deployment; set-up time is the median of the CPU time each set-up
	// took, workers included.
	var setup []float64
	var p *pipeline
	submitted := 0
	for s := 0; s < cfg.setups; s++ {
		runtime.GC()
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("setup-%d", s))
		cpu0 := (&cpuClock{}).now()
		q, err := buildPipeline(w, cfg.seed, dir, cfg.fullRecompute)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		n, failed := 0, 0
		for k := 0; k < w.warmup; k++ {
			r, err := q.runInterval(nil)
			if err != nil {
				_ = q.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			n += r.ratings
			failed += r.failed
		}
		setup = append(setup, (q.cpu.now() - cpu0).Seconds())
		if s < cfg.setups-1 {
			if err := q.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		p, submitted, res.failed = q, n, failed
	}
	defer p.close()
	res.attempted = submitted
	p.measureWAL = cfg.traced

	var (
		acc layerAcc
		// Per-interval figures of the untraced intervals: all of them in an
		// untraced run, the untraced blocks of a traced one.
		intervals []float64
		publishes []float64
		acked     []float64
		ingests   []float64
		rated     float64 // ratings submitted
		walls     float64 // seconds from each interval's start to its upkeep's end
		// CPU seconds of the timed intervals — the untraced ones; of a
		// workload whose state grows, only those of the prefix — over the
		// interval, the publish step and the whole interval with upkeep.
		timed, timedRatings               float64
		intervalCPU, publishCPU, spentCPU float64
		count                             int // intervals measured, traced or not
		ratio                             = math.NaN()
		peakRSS                           float64
		workerRSS                         float64
		ratings                           int
		tracedNow                         bool
		blockStart                        time.Time
		lastSaved                         time.Time
		saved                             []savedInterval
	)
	missCtr := obs.C("signal_cache_misses_total")
	blockLen := time.Duration(cfg.seconds / 8 * float64(time.Second))
	replayGap := time.Duration(cfg.seconds / maxReplays * float64(time.Second))
	// Memory the set-up phase freed goes back to the OS, so the window's
	// peak resident set is the measured deployment's own.
	debug.FreeOSMemory()
	rss := startRSSSampler()
	obs0 := obs.ReadSnapshot()
	rt0 := readRuntime()
	ql := startQueries(p.overlay, w.nodes, cfg.seed, w.queries)
	start := time.Now()
	for k := 0; ; k++ {
		if cfg.intervals > 0 && k >= cfg.intervals {
			break
		}
		if cfg.intervals <= 0 && k >= w.prefix && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		if cfg.traced && (k == 0 || cfg.intervals > 0 || time.Since(blockStart) >= blockLen) {
			// Traced and untraced blocks alternate, so the tracing overhead
			// is measured against the same stretch of the run.
			tracedNow = !tracedNow
			blockStart = time.Now()
			setTracing(tracedNow)
			ql.traced.Store(tracedNow)
		}
		var root *span.Active
		if tracedNow {
			root = span.Root("perfbench.interval")
			root.SetInt("interval", int64(p.iv+1))
		}
		prev := span.SetAmbient(root.Context())
		misses0 := missCtr.Value()
		r, err := p.runInterval(func() {
			span.SetAmbient(prev)
			root.End()
		})
		if err != nil {
			res.fail("%v", err)
			break
		}
		submitted += r.ratings
		res.attempted += r.ratings
		res.failed += r.failed
		ratings += r.ratings
		count++
		if k == w.prefix-1 || (cfg.intervals > 0 && k == cfg.intervals-1 && k < w.prefix) {
			// Figures that depend on how much state the stream has built up
			// are read over a fixed prefix of it, so they do not change with
			// how many intervals the window has time for.
			ratio = colluderRatio(p.wd, p.lastReps)
			rss.halt()
			peakRSS, workerRSS = rss.peak, rss.childPeak
			rss = nil
		}
		if !tracedNow {
			intervals = append(intervals, r.interval.Seconds())
			publishes = append(publishes, r.publish.Seconds())
			rated += float64(r.ratings)
			walls += r.wall.Seconds()
			if !w.grows || k < w.prefix {
				timed++
				timedRatings += float64(r.ratings)
				intervalCPU += r.intervalCPU.Seconds()
				publishCPU += r.publishCPU.Seconds()
				spentCPU += r.cpu.Seconds()
			}
			acked = append(acked, float64(r.ratings-r.failed))
			ingests = append(ingests, r.ingest.Seconds())
			continue
		}
		acc.durTraced = append(acc.durTraced, r.interval.Seconds())
		misses := missCtr.Value() - misses0
		acc.misses += misses
		acc.note(r, p)
		if att, ok := span.Current().TakeAttribution(root.TraceID()); ok {
			acc.spanIngest += att.Ingest
			acc.spanDrain += att.Drain
			acc.spanAdjust += att.Adjust
			acc.spanIterate += att.Iterate
			acc.spanTotals++
		}
		if len(saved) < maxReplays && (cfg.intervals > 0 || lastSaved.IsZero() || time.Since(lastSaved) >= replayGap) {
			saved = append(saved, savedInterval{append([]rating.Rating(nil), r.input.ratings...), r.snap, misses})
			lastSaved = time.Now()
		}
	}
	ql.halt()
	if rss != nil {
		rss.halt() // the loop stopped early on a failed check
	}
	setTracing(false)
	rt1 := readRuntime()
	obs1 := obs.ReadSnapshot()
	// Replay the saved intervals' inputs through the layers' public
	// functions now, after the window, so neither their time nor their
	// garbage lands in a measured interval.
	for _, si := range saved {
		acc.replay(p, si)
	}
	saved = nil

	var recovery []float64
	for i := 0; i < cfg.recoveries && res.correct; i++ {
		d, err := p.recover()
		if err != nil {
			res.fail("%v", err)
			break
		}
		// The recovered interval counts once: the half submitted before the
		// stop is acknowledged again as duplicates, not ingested twice.
		submitted += len(p.gen.buf)
		res.attempted += len(p.gen.buf)
		recovery = append(recovery, d.Seconds())
	}

	// Correctness of the run as a whole.
	if p.outer.ratings != submitted {
		res.fail("engine received %d ratings, %d were submitted", p.outer.ratings, submitted)
	}
	final := p.lastReps
	if err := checkReputations(final); err != nil {
		res.fail("final vector: %v", err)
	}
	res.digest = digest(final)
	res.attempted += len(ql.latency)
	res.failed += ql.failed
	if math.IsNaN(ratio) || ratio <= 0 {
		res.fail("colluder reputation ratio %v", ratio)
	}
	if err := p.close(); err != nil {
		res.fail("%v", err)
	}

	// Medians are taken over blocks of consecutive intervals spanning at
	// least blockSpan seconds, of each block's mean: a single interval's
	// time swings with whether a GC cycle overlapped it, and a median of
	// such a two-humped sample jumps between the humps from run to run.
	blocks := blockBounds(intervals, blockSpan)
	blockMean := func(xs []float64) []float64 {
		out := make([]float64, len(blocks))
		for i, b := range blocks {
			out[i] = sum(xs[b[0]:b[1]]) / float64(b[1]-b[0])
		}
		return out
	}
	blockRate := make([]float64, len(blocks))
	for i, b := range blocks {
		blockRate[i] = sum(acked[b[0]:b[1]]) / sum(ingests[b[0]:b[1]])
	}
	res.samples["intervals"] = count
	res.samples["interval_p50_s"] = len(blocks)
	res.samples["interval_p90_s"] = len(intervals)
	res.samples["publish_p50_s"] = len(blocks)
	res.samples["cpu_intervals"] = int(timed)
	res.samples["ingest_ratings_per_s"] = len(blocks)
	res.samples["query_p50_us"] = len(ql.plain)
	res.samples["query_p99_us"] = len(ql.plain)
	res.samples["setup_s"] = len(setup)
	res.samples["recovery_s"] = len(recovery)
	if !cfg.traced {
		// The end-to-end timings are CPU time, not wall time: on a shared
		// virtual machine the time the hypervisor steals from its vCPUs
		// swings wall time by a quarter from run to run, and a task's CPU
		// time leaves stolen time out. They are means over the timed
		// intervals; the wall-clock figures are per-layer.
		res.add("interval_cpu_s", "s", intervalCPU/timed)
		res.add("publish_cpu_s", "s", publishCPU/timed)
		res.add("ratings_per_cpu_s", "1/s", timedRatings/spentCPU)
		res.add("peak_rss_mb", "MB", peakRSS)
		res.add("setup_s", "s", quantile(setup, 0.5))
		return res, nil
	}

	// Per-layer figures of the traced intervals. Busy times and counts are
	// per traced interval unless the name says otherwise. The latency and
	// throughput figures that are end-to-end in kind (ingest rate, interval
	// p90, query percentiles) come from the untraced blocks only.
	iv := float64(max(acc.intervals, 1))
	per := func(d time.Duration) float64 { return d.Seconds() / iv }
	ctr := func(name string) float64 { return float64(obs1.Counters[name] - obs0.Counters[name]) }
	hist := func(name string) (count, sum float64) {
		a, b := obs0.Histograms[name], obs1.Histograms[name]
		return float64(b.Count - a.Count), b.Sum - a.Sum
	}
	ratio0 := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rep := float64(max(acc.replays, 1))
	res.add("interval_p50_s", "s", quantile(blockMean(intervals), 0.5))
	res.add("publish_p50_s", "s", quantile(blockMean(publishes), 0.5))
	res.add("ratings_per_s", "1/s", rated/walls)
	res.add("ingest_ratings_per_s", "1/s", quantile(blockRate, 0.5))
	res.add("interval_p90_s", "s", quantile(intervals, 0.9))
	res.add("recovery_s", "s", nanZero(quantile(recovery, 0.5)))
	res.add("failed_frac", "ratio", ratio0(float64(res.failed), float64(res.attempted)))
	res.add("colluder_rep_ratio", "ratio", ratio)
	// A run too short for an untraced query reports 0 over 0 samples.
	res.add("query_p50_us", "us", nanZero(1e6*quantile(ql.plain, 0.5)))
	res.add("query_p99_us", "us", nanZero(1e6*quantile(ql.plain, 0.99)))

	res.add("socialgraph.closeness_from.calls", "count", acc.closeCalls/rep)
	res.add("socialgraph.closeness_from.targets", "count", float64(acc.misses)/iv)
	res.add("socialgraph.closeness_from.us_per_target", "us", ratio0(1e6*acc.closeTime.Seconds(), float64(acc.timedTargets)))
	res.add("socialgraph.reach3.nodes", "count", acc.reachNodes/rep)
	res.add("socialgraph.mutate.busy_s", "s", per(acc.mutate))
	res.add("interest.similarity.ns_per_pair", "ns", ratio0(1e9*acc.simTime.Seconds(), float64(acc.simPairs)))
	res.add("interest.tracker_record.busy_s", "s", per(acc.record))

	hits, misses := ctr("signal_cache_hits_total"), ctr("signal_cache_misses_total")
	res.add("core.update.busy_s", "s", per(acc.core))
	res.add("core.adjust_s", "s", per(acc.core-acc.eigen))
	res.add("core.pairs", "count", float64(acc.pairs)/iv)
	res.add("core.pairs_adjusted", "count", float64(acc.adjusted)/iv)
	res.add("core.signal_cache.hit_frac", "ratio", ratio0(hits, hits+misses))

	res.add("eigentrust.update.busy_s", "s", per(acc.eigen))
	res.add("eigentrust.iterations", "count", ctr("eigentrust_iterations_total")/iv)
	res.add("eigentrust.skipped", "count", ctr("eigentrust_warm_start_skips_total")/iv)
	res.add("eigentrust.csr_rebuilds", "count", ctr("eigentrust_csr_rebuilds_total")/iv)

	queries := float64(max(len(ql.latency), 1))
	res.add("manager.submit_batch.calls", "count", float64(acc.submitCalls)/iv)
	res.add("manager.submit_batch.busy_s", "s", per(acc.ingest))
	res.add("manager.end_interval.busy_s", "s", per(acc.endIv))
	res.add("manager.drain_s", "s", per(acc.endIv-acc.core))
	res.add("manager.query.busy_s", "s", ql.busy.Seconds()/float64(max(count, 1)))
	res.add("manager.query.us_per_query", "us", 1e6*ql.busy.Seconds()/queries)
	res.add("manager.submit_errors", "count", ctr("manager_submit_errors_total"))
	res.add("manager.submit_retries", "count", ctr("manager_submit_retries_total"))

	res.add("rating.ledger.ns_per_rating", "ns", ratio0(1e9*acc.ledgerTime.Seconds(), float64(acc.ledgerRates)))

	fsyncs, fsyncSecs := hist("persist_wal_fsync_seconds")
	res.add("persist.wal.bytes_per_rating", "B", ratio0(float64(acc.walBytes), float64(acc.ratings)))
	res.add("persist.wal.records", "count", ctr("persist_wal_records_total")/iv)
	res.add("persist.fsync.count", "count", fsyncs/iv)
	res.add("persist.fsync_s", "s", fsyncSecs/iv)
	res.add("persist.errors", "count", ctr("persist_errors_total"))

	_, encSecs := hist("cluster_encode_seconds")
	_, decSecs := hist("cluster_decode_seconds")
	res.add("cluster.wire_bytes_per_rating", "B",
		ratio0(ctr("cluster_bytes_sent_total")+ctr("cluster_bytes_received_total"), float64(acc.ratings)))
	res.add("cluster.frames_sent", "count", ctr("cluster_frames_sent_total")/iv)
	res.add("cluster.encode_s", "s", encSecs/iv)
	res.add("cluster.decode_s", "s", decSecs/iv)
	res.add("cluster.reconnects", "count", ctr("cluster_reconnects_total"))
	res.add("cluster.worker_peak_rss_mb", "MB", workerRSS)

	winRatings := float64(max(ratings, 1))
	winIntervals := float64(max(count, 1))
	res.add("go.gc_cpu_s", "s", (rt1.gcCPU-rt0.gcCPU)/winIntervals)
	res.add("go.gc_cycles", "count", (rt1.gcCycles-rt0.gcCycles)/winIntervals)
	res.add("go.heap_live_mb", "MB", rt1.heapLive/(1<<20))
	res.add("go.alloc_bytes_per_rating", "B", (rt1.allocs-rt0.allocs)/winRatings)

	// Reconciliation: outside-in layer time against the program's own span
	// phases over the same traced intervals.
	phases := [4]string{"ingest", "drain", "adjust", "iterate"}
	out := [4]float64{per(acc.ingest), per(acc.endIv - acc.core), per(acc.core - acc.eigen), per(acc.eigen)}
	spans := [4]float64{acc.spanIngest, acc.spanDrain, acc.spanAdjust, acc.spanIterate}
	st := float64(max(acc.spanTotals, 1))
	worst, outSum, spanSum := 0.0, 0.0, 0.0
	for i := range spans {
		spans[i] /= st
		outSum += out[i]
		spanSum += spans[i]
		res.reconcile = append(res.reconcile, reconRow{phases[i], out[i], spans[i]})
	}
	for i := range spans {
		worst = math.Max(worst, math.Abs(out[i]-spans[i])/math.Max(outSum, 1e-12))
	}
	late := make([]float64, len(ql.late))
	for i, v := range ql.late {
		late[i] = v * 1e3
	}
	res.samples["loadgen.late_p99_ms"] = len(late)
	res.add("loadgen.late_p99_ms", "ms", nanZero(quantile(late, 0.99)))
	res.add("trace.coverage", "ratio", ratio0(spanSum, outSum))
	res.add("trace.reconcile_err", "ratio", worst)
	overhead := 0.0
	if len(acc.durTraced) > 0 && len(intervals) > 0 {
		overhead = quantile(acc.durTraced, 0.5)/quantile(intervals, 0.5) - 1
	}
	res.add("trace.overhead_frac", "ratio", overhead)
	res.add("trace.phase.ingest_s", "s", spans[0])
	res.add("trace.phase.drain_s", "s", spans[1])
	res.add("trace.phase.adjust_s", "s", spans[2])
	res.add("trace.phase.iterate_s", "s", spans[3])
	res.samples["trace.overhead_frac.traced"] = len(acc.durTraced)
	res.samples["trace.overhead_frac.untraced"] = len(intervals)
	return res, nil
}

// setTracing switches the program's metric registry and span recorder on or
// off together.
func setTracing(on bool) {
	obs.SetEnabled(on)
	if on {
		span.Enable(spanCapacity)
	} else {
		span.Disable()
	}
}

func nanZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// note folds one traced interval's outside-in timings into the totals.
func (a *layerAcc) note(r intervalResult, p *pipeline) {
	a.intervals++
	a.ratings += r.ratings
	a.submitCalls += r.calls
	a.ingest += r.ingest
	a.endIv += r.endIv
	a.core += r.core
	a.eigen += r.eigen
	a.mutate += r.mutate
	a.record += r.record
	a.walBytes += r.walBytes
	a.pairs += len(r.snap.Counts)
	a.adjusted += len(p.filter.LastReport().Adjusted)
}

// Replay limits: traced intervals saved for replay, raters sampled for the
// closeness/reach replays and pairs for the similarity replay, per saved
// interval.
const (
	maxReplays   = 5
	replayRaters = 256
	replayPairs  = 20_000
)

// savedInterval is a traced interval's input and drained snapshot, kept for
// replay after the measured window.
type savedInterval struct {
	ratings []rating.Rating
	snap    rating.Snapshot
	misses  int64 // pairs that missed the filter's signal cache
}

// replay re-runs one interval's own inputs through the layers' public
// functions on the final graph: ClosenessFrom and WithinHops over a rater
// sample (the interval's rater groups, as the filter batches them),
// Similarity over its pairs, and a standalone Ledger ingest of its ratings.
func (a *layerAcc) replay(p *pipeline, r savedInterval) {
	a.replays++
	pairs := make([]rating.PairKey, 0, len(r.snap.Counts))
	for k := range r.snap.Counts {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].Rater != pairs[j].Rater {
			return pairs[i].Rater < pairs[j].Rater
		}
		return pairs[i].Ratee < pairs[j].Ratee
	})
	type group struct {
		rater  int
		ratees []socialgraph.NodeID
	}
	var groups []group
	for _, k := range pairs {
		if len(groups) == 0 || groups[len(groups)-1].rater != k.Rater {
			groups = append(groups, group{rater: k.Rater})
		}
		g := &groups[len(groups)-1]
		g.ratees = append(g.ratees, socialgraph.NodeID(k.Ratee))
	}
	// The filter runs one ClosenessFrom call per rater group, but only for
	// the pairs that missed its signal cache. The replay is cold — it covers
	// every group — so the call count and the BFS reach are scaled by the
	// interval's miss fraction, read from the filter's own counter. The
	// timing and the reach per call come from a sample of the groups.
	missFrac := float64(r.misses) / float64(max(len(pairs), 1))
	a.closeCalls += float64(len(groups)) * missFrac
	stride := max(1, len(groups)/replayRaters)
	g := p.wd.graph
	seen := make([]bool, p.w.nodes)
	var within []socialgraph.NodeID
	sampled, reach := 0, 0
	for i := 0; i < len(groups); i += stride {
		gr := groups[i]
		t := time.Now()
		g.ClosenessFrom(socialgraph.NodeID(gr.rater), gr.ratees, p.params)
		a.closeTime += time.Since(t)
		a.timedTargets += len(gr.ratees)
		within = g.WithinHops([]socialgraph.NodeID{socialgraph.NodeID(gr.rater)}, p.params.MaxPathHops, seen, within[:0])
		reach += len(within)
		sampled++
	}
	a.reachNodes += float64(reach) / float64(max(sampled, 1)) * float64(len(groups)) * missFrac

	sets := p.wd.sets
	n := min(len(pairs), replayPairs)
	t := time.Now()
	acc := 0.0
	for _, k := range pairs[:n] {
		acc += interest.Similarity(sets[k.Rater], sets[k.Ratee])
	}
	a.simTime += time.Since(t)
	a.simPairs += n
	sink += acc

	l := rating.NewLedger(p.w.nodes)
	t = time.Now()
	for lo := 0; lo < len(r.ratings); lo += batchSize {
		l.AddBatch(r.ratings[lo:min(lo+batchSize, len(r.ratings))])
	}
	snap := l.EndInterval()
	a.ledgerTime += time.Since(t)
	a.ledgerRates += len(r.ratings)
	sink += float64(len(snap.Ratings))
}

// sink keeps replayed results observable so the compiler cannot drop the
// calls that produce them.
var sink float64

// runtimeFigures are the Go runtime counters the go.* metrics derive from.
type runtimeFigures struct {
	gcCPU, gcCycles, heapLive, allocs float64
}

func readRuntime() runtimeFigures {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeFigures{val(samples[0]), val(samples[1]), val(samples[2]), val(samples[3])}
}
