package main

import (
	"bytes"
	"math"
	"os"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"socialtrust/internal/manager"
	"socialtrust/internal/xrand"
)

// queryLoad is an open-loop reputation query generator: one goroutine sends
// queries on a fixed schedule regardless of how fast earlier ones returned,
// as independent peers would. Each latency is measured from the query's due
// time, so a stall also charges the queries scheduled behind it; a failed
// query counts as an infinite latency, missing every limit.
type queryLoad struct {
	stop chan struct{}
	done chan struct{}
	// traced is set while the run's tracing is on; queries sent then are
	// left out of plain.
	traced atomic.Bool

	// Written by the generator goroutine, read after done is closed.
	latency []float64 // seconds from due time to answer (+Inf on failure)
	plain   []float64 // the latencies of queries sent while tracing was off
	late    []float64 // seconds from due time to send
	busy    time.Duration
	failed  int
}

// startQueries begins sending queryRate queries per second at nodes drawn
// from seed, until stop; when on is false it sends none.
func startQueries(o *manager.Overlay, nodes int, seed uint64, on bool) *queryLoad {
	q := &queryLoad{stop: make(chan struct{}), done: make(chan struct{})}
	if !on {
		close(q.done)
		return q
	}
	rng := xrand.New(seed).SplitString("queries")
	gap := time.Second / queryRate
	go func() {
		defer close(q.done)
		start := time.Now()
		timer := time.NewTimer(time.Hour)
		timer.Stop()
		defer timer.Stop()
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k) * gap)
			if wait := time.Until(due); wait > 0 {
				timer.Reset(wait)
				select {
				case <-q.stop:
					return
				case <-timer.C:
				}
			} else {
				select {
				case <-q.stop:
					return
				default:
				}
			}
			node := rng.Intn(nodes)
			traced := q.traced.Load()
			sent := time.Now()
			_, err := o.Query(node)
			end := time.Now()
			q.busy += end.Sub(sent)
			q.late = append(q.late, sent.Sub(due).Seconds())
			lat := end.Sub(due).Seconds()
			if err != nil {
				q.failed++
				lat = math.Inf(1)
			}
			q.latency = append(q.latency, lat)
			if !traced {
				q.plain = append(q.plain, lat)
			}
		}
	}()
	return q
}

// halt stops the generator and waits for its goroutine to exit.
func (q *queryLoad) halt() {
	close(q.stop)
	<-q.done
}

// rssSampler records the peak resident set of this process plus its child
// processes — cluster-ingest's shard workers — summed at each sample, from
// /proc/<pid>/statm every few milliseconds. The children are those alive
// when the sampler starts.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	// MiB; read after done is closed.
	peak      float64 // of the summed resident set
	childPeak float64 // of the largest child's resident set
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	children := childPIDs()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			total := residentMB("self")
			for _, pid := range children {
				r := residentMB(pid)
				total += r
				s.childPeak = math.Max(s.childPeak, r)
			}
			s.peak = math.Max(s.peak, total)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// halt stops the sampler.
func (s *rssSampler) halt() {
	close(s.stop)
	<-s.done
}

// residentMB reads a process's resident set in MiB from /proc/<pid>/statm,
// 0 when it cannot.
func residentMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(string(f[1]), 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// childPIDs lists the processes whose parent is this one.
func childPIDs() []string {
	entries, _ := os.ReadDir("/proc")
	self := strconv.Itoa(os.Getpid())
	var out []string
	for _, e := range entries {
		if e.Name()[0] < '0' || e.Name()[0] > '9' {
			continue
		}
		b, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue
		}
		// The parent is the second field after the parenthesised command,
		// which may itself hold spaces and parentheses.
		if i := bytes.LastIndexByte(b, ')'); i >= 0 {
			if f := bytes.Fields(b[i+1:]); len(f) > 1 && string(f[1]) == self {
				out = append(out, e.Name())
			}
		}
	}
	return out
}

// cpuClock reads the CPU time the deployment has used: this process plus
// the worker processes alive when the clock was made. The kernel leaves
// time the hypervisor stole from a vCPU out of a task's run time, so on a
// shared host the timing figures taken from this clock follow the work
// done, not the neighbours' load.
type cpuClock struct {
	children []string
}

func newCPUClock() *cpuClock { return &cpuClock{children: childPIDs()} }

// now returns the CPU time used so far.
func (c *cpuClock) now() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	d := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	for _, pid := range c.children {
		d += processRunTime(pid)
	}
	return d
}

// processRunTime sums the run time of a process's threads from
// /proc/<pid>/task/*/schedstat, whose first field is nanoseconds on a CPU;
// 0 once the process is gone.
func processRunTime(pid string) time.Duration {
	dir := "/proc/" + pid + "/task"
	tasks, _ := os.ReadDir(dir)
	var d time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue
		}
		if f := bytes.Fields(b); len(f) > 0 {
			if ns, err := strconv.ParseInt(string(f[0]), 10, 64); err == nil {
				d += time.Duration(ns)
			}
		}
	}
	return d
}
