// Command perfbench is the repository's pipeline benchmark. It generates a
// workload from a seed — social graph, interest profiles, a planted
// collusion population and a rating stream — and drives it through the
// public API, one update interval at a time: manager.Overlay.SubmitBatch
// ingest, EndInterval drain, SocialTrust adjust, EigenTrust iteration and
// broadcast, with an open-loop reputation query stream alongside on
// warm-churn. It checks the outputs and prints every metric by name and
// unit; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end figures of an untraced run,
// its timings in CPU seconds of the benchmark process and its workers.
// With -trace 1 the run alternates traced and untraced blocks and reports
// per-layer figures: outside-in timings of each layer, replays of the
// traced intervals' inputs through the layers' public functions, the
// program's own obs counters and span phases, and Go runtime metrics.
//
// Build and run it from the repository root with perfbench/run.sh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"socialtrust/internal/cluster"
)

func main() {
	cluster.WorkerMainIfChild() // cluster-ingest re-executes this binary as a shard worker
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if err := os.Chdir(repoRoot()); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	// All scratch state — WALs, worker sockets — lives under .bench_build
	// in the repository. The path stays relative so unix socket paths stay
	// short wherever the repository sits.
	workDir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(filepath.Join(workDir, "tmp"), 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if err := os.Setenv("TMPDIR", filepath.Join(workDir, "tmp")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	cfg := runConfig{
		w: w, seed: *seed, seconds: *seconds, traced: *trace == 1,
		setups: 3, workDir: workDir,
	}
	if w.durable && w.workers == 0 {
		cfg.recoveries = 3
	}
	res, err := run(cfg)
	_ = os.RemoveAll(workDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	report(os.Stdout, w, cfg, res)
	if !res.correct {
		os.Exit(1)
	}
}

// repoRoot returns the directory holding the repository's go.mod: the
// working directory when run from the root, else its parent.
func repoRoot() string {
	if _, err := os.Stat("internal"); err == nil {
		return "."
	}
	return ".."
}

// report prints the human-readable table, the run metadata and, last, the
// JSON result line.
func report(f io.Writer, w workload, cfg runConfig, res *runResult) {
	mode := "end-to-end (untraced)"
	if cfg.traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(f, "perfbench %s seed=%d seconds=%g %s\n", w.name, cfg.seed, cfg.seconds, mode)
	for _, m := range res.metrics {
		fmt.Fprintf(f, "  %-42s %16.6g %s\n", m.name, m.value, m.unit)
	}
	if len(res.reconcile) > 0 {
		fmt.Fprintf(f, "  reconciliation per traced interval: %-8s %12s %12s\n", "phase", "outside-in_s", "span_s")
		for _, r := range res.reconcile {
			fmt.Fprintf(f, "  %36s %-8s %12.6f %12.6f\n", "", r.phase, r.outside, r.spn)
		}
	}
	for _, p := range res.problems {
		fmt.Fprintf(f, "  CHECK FAILED: %s\n", p)
	}
	meta := map[string]any{
		"workload":   w.name,
		"seed":       cfg.seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"digest":     res.digest,
		"samples":    res.samples,
	}
	b, _ := json.Marshal(meta)
	fmt.Fprintf(f, "meta %s\n", b)

	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]val{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, _ = json.Marshal(out)
	fmt.Fprintf(f, "%s\n", b)
}

// commit identifies the measured source: the VCS revision the binary was
// built from when the build recorded one, else "unknown" plus a digest of
// the module's Go sources (a benchmark checkout need not be a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" && dirty {
			return rev + "+modified; source " + sourceDigest()
		}
		if rev != "" {
			return rev
		}
	}
	return "unknown; source " + sourceDigest()
}

// sourceDigest hashes the repository's go.mod and .go files outside
// .bench_build, in path order.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	var all []byte
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		all = append(all, path...)
		all = append(all, 0)
		all = append(all, b...)
	}
	return shortHash(all)
}
