package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"socialtrust/internal/cluster"
)

func TestMain(m *testing.M) {
	cluster.WorkerMainIfChild() // cluster-ingest re-executes the test binary as a shard worker
	os.Exit(m.Run())
}

// small returns w at a tenth of its population, keeping its shape.
func small(w workload) workload {
	w.nodes /= 10
	w.raters = max(w.raters/10, numPretrust+2*w.pcmPairs/5+mcmGroupSize*w.mcmGroups/5)
	w.pcmPairs /= 5
	w.mcmGroups /= 5
	return w
}

// smallRun runs a reduced w for a fixed number of intervals.
func smallRun(t *testing.T, w workload, intervals int, traced, fullRecompute bool, recoveries int) *runResult {
	t.Helper()
	res, err := run(runConfig{
		w: small(w), seed: 7, seconds: 1, intervals: intervals,
		traced: traced, setups: 1, recoveries: recoveries,
		fullRecompute: fullRecompute, workDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !res.correct {
		t.Fatalf("%s: checks failed: %v", w.name, res.problems)
	}
	if res.failed != 0 {
		t.Fatalf("%s: %d of %d operations failed", w.name, res.failed, res.attempted)
	}
	return res
}

// benchmarkSpec is the part of BENCHMARK.json perfbench's output must
// match.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmokeEveryWorkload runs every workload at a reduced size, untraced and
// traced, and checks the reported metrics are exactly BENCHMARK.json's, with
// its units, so perfbench and its declaration cannot drift apart.
func TestSmokeEveryWorkload(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, perfbench has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, ok := workloads[sw.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", sw.Name)
		}
		for _, traced := range []bool{false, true} {
			recoveries := 0
			if w.durable && w.workers == 0 {
				recoveries = 1
			}
			res := smallRun(t, w, 4, traced, false, recoveries)
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			got := map[string]string{}
			for _, m := range res.metrics {
				got[m.name] = m.unit
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(got), len(want))
			}
			for _, m := range want {
				if unit, ok := got[m.Name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s reported with unit %q, want %q", w.name, traced, m.Name, unit, m.Unit)
				}
			}
			var out strings.Builder
			report(&out, w, runConfig{seed: 7, traced: traced}, res)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool                       `json:"correct"`
				Attempted int                        `json:"attempted"`
				Failed    int                        `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.name, err)
			}
			if !last.Correct || last.Attempted < 1 || len(last.Metrics) != len(want) {
				t.Errorf("%s traced=%v: result line %s", w.name, traced, lines[len(lines)-1])
			}
		}
	}
}

// TestDigestMatchesFullRecompute pins the incremental engine against its
// reference mode on every workload's stream: the same trace run with
// core.Config.FullRecompute publishes the same final vector, bit for bit.
func TestDigestMatchesFullRecompute(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		inc := smallRun(t, w, 4, false, false, 0)
		ref := smallRun(t, w, 4, false, true, 0)
		if inc.digest != ref.digest {
			t.Errorf("%s: digest %s, FullRecompute reference %s", name, inc.digest, ref.digest)
		}
	}
}

// TestTracedDigestMatchesUntraced pins that the traced run — timing
// wrappers, obs counters, spans and replays — changes no result.
func TestTracedDigestMatchesUntraced(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		plain := smallRun(t, w, 4, false, false, 0)
		traced := smallRun(t, w, 4, true, false, 0)
		if plain.digest != traced.digest {
			t.Errorf("%s: traced digest %s, untraced %s", name, traced.digest, plain.digest)
		}
	}
}

// TestRecoveryMatchesUninterrupted pins the durable-ingest recovery cycle:
// stopping mid-interval, reopening over the WALs and re-submitting the whole
// interval publishes the same vector as running those intervals straight
// through.
func TestRecoveryMatchesUninterrupted(t *testing.T) {
	w := workloads["durable-ingest"]
	recovered := smallRun(t, w, 3, false, false, 2)
	straight := smallRun(t, w, 5, false, false, 0)
	if recovered.digest != straight.digest {
		t.Errorf("recovered digest %s, uninterrupted %s", recovered.digest, straight.digest)
	}
}
