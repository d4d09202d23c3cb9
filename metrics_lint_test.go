package socialtrust_test

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"socialtrust"
)

// TestMetricsExpositionHygiene is the promtool-style lint over a fully
// instrumented exposition: after a managed chaos run has touched every
// subsystem (overlay, engine, filter, simulator, churn, faults, runtime
// sampling), every metric family in the Prometheus text output must carry a
// # HELP line, every family and series name must be well-formed, and no
// family may appear twice.
func TestMetricsExpositionHygiene(t *testing.T) {
	socialtrust.EnableMetrics()
	cfg := socialtrust.DefaultSimConfig(socialtrust.MCM, socialtrust.EngineEigenTrust, 0.4, true)
	cfg.NumNodes = 60
	cfg.NumPretrusted = 3
	cfg.NumColluders = 10
	cfg.NumBoosted = 3
	cfg.QueryCycles = 5
	cfg.SimulationCycles = 4
	cfg.Seed = 42
	cfg.Managers = 4
	cfg.Churn = socialtrust.DefaultChurn()
	cfg.Faults = socialtrust.FaultConfig{Seed: 7, Drop: 0.05, CrashRate: 0.2}
	if _, err := socialtrust.RunSim(cfg); err != nil {
		t.Fatal(err)
	}
	// Fold in the runtime gauges and the health sampler's view so the
	// exposition is as instrumented as a live ops-plane scrape.
	s := socialtrust.StartHealthSampler(socialtrust.HealthConfig{})
	s.SampleOnce()
	s.Stop()

	var buf bytes.Buffer
	if err := socialtrust.WriteMetricsText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	nameRE := regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)
	seriesRE := regexp.MustCompile(`^([a-z_][a-z0-9_]*)(\{[^{}]*\})?$`)
	families := map[string]bool{} // family -> has # HELP
	typed := map[string]int{}
	var lastHelp string
	nFamilies, nSeries := 0, 0
	for _, line := range strings.Split(text, "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || strings.TrimSpace(help) == "" {
				t.Errorf("HELP line without text: %q", line)
			}
			lastHelp = name
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			name, kind := fields[0], fields[1]
			if !nameRE.MatchString(name) {
				t.Errorf("family name %q does not match [a-z_][a-z0-9_]*", name)
			}
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Errorf("family %s has unknown type %q", name, kind)
			}
			typed[name]++
			families[name] = lastHelp == name
			nFamilies++
		case strings.HasPrefix(line, "#"):
			t.Errorf("unexpected comment line: %q", line)
		default:
			name, _, ok := strings.Cut(line, " ")
			if !ok {
				t.Fatalf("malformed sample line: %q", line)
			}
			m := seriesRE.FindStringSubmatch(name)
			if m == nil {
				t.Errorf("series name %q is not well-formed", name)
				continue
			}
			base := strings.TrimSuffix(strings.TrimSuffix(m[1], "_bucket"), "_sum")
			base = strings.TrimSuffix(base, "_count")
			if typed[base] == 0 && typed[m[1]] == 0 {
				t.Errorf("series %q precedes or lacks its family TYPE line", name)
			}
			nSeries++
		}
	}
	for name, hasHelp := range families {
		if !hasHelp {
			t.Errorf("metric family %s has no # HELP line", name)
		}
	}
	for name, n := range typed {
		if n > 1 {
			t.Errorf("metric family %s appears %d times", name, n)
		}
	}
	// Sanity-check the run actually instrumented the subsystems this lint
	// claims to cover — an empty exposition would pass vacuously.
	if nFamilies < 30 || nSeries < 30 {
		t.Fatalf("exposition suspiciously small: %d families, %d series", nFamilies, nSeries)
	}
	for _, want := range []string{
		"manager_drain_total", "manager_shards_down", "eigentrust_residual",
		"eigentrust_converged", "sim_cycle_seconds", "sim_interval_last_seconds",
		"runtime_rss_bytes", "runtime_gc_pause_seconds", "socialtrust_adjust_seconds",
		// The cluster transport registers its families at init, so they must
		// surface (with HELP) even in a single-process exposition — a fleet
		// dashboard scraping a coordinator relies on that.
		"cluster_bytes_sent_total", "cluster_bytes_received_total",
		"cluster_frames_sent_total", "cluster_frames_received_total",
		"cluster_inflight_batches", "cluster_reconnects_total",
		"cluster_worker_respawns_total", "cluster_encode_seconds",
		"cluster_decode_seconds",
		// The closeness kernel's counters register at init as well.
		"socialgraph_bfs_runs_total", "socialgraph_bfs_nodes_visited_total",
		"socialgraph_bfs_early_exits_total",
	} {
		if !families[want] {
			t.Errorf("fully instrumented snapshot missing family %s", want)
		}
	}
}
