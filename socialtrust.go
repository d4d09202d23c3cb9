// Package socialtrust is a reproduction of "Leveraging Social Networks to
// Combat Collusion in Reputation Systems for Peer-to-Peer Networks"
// (Li, Shen, Sapra — IPDPS 2011 / IEEE TC 2012).
//
// SocialTrust is a collusion-deterrence layer for P2P reputation systems: it
// re-weights reputation ratings using the social closeness Ωc and interest
// similarity Ωs between rater and ratee, shrinking ratings that match the
// suspicious behavior patterns B1–B4 mined from the Overstock trace with a
// Gaussian filter (Equations 2–11 of the paper).
//
// The package is a facade over the implementation packages:
//
//   - the social-network substrate (friendship multigraph, typed
//     relationships, interaction frequency, Ωc — Equations 2/3/4/10)
//   - the interest model (interest sets, Ωs — Equations 1/7/11)
//   - the rating ledger (per-interval t+/t− frequency counters)
//   - three baseline reputation engines: EigenTrust (power iteration with
//     pretrusted peers, plus the paper-evaluation iterative variant), an
//     eBay-style per-interval-deduplicated accumulator, and a
//     TrustGuard-style credibility-weighted engine
//   - the SocialTrust filter itself, wrapping any Engine
//   - the Section 5 P2P simulator with the PCM/MCM/MMM collusion models
//   - the synthetic Overstock trace generator and Section 3 analyzers
//   - the experiment harness that regenerates every table and figure
//
// Quick start — wrap an engine with the filter:
//
//	g := socialtrust.NewGraph(n)
//	tracker := socialtrust.NewTracker(n)
//	inner := socialtrust.NewEBayEngine(n)
//	filter := socialtrust.NewFilter(socialtrust.FilterConfig{NumNodes: n},
//	    g, interestSets, tracker, inner)
//	// feed rating snapshots each update interval:
//	filter.Update(ledger.EndInterval())
//	reps := filter.Reputations()
//
// See examples/ for runnable programs and DESIGN.md / EXPERIMENTS.md for the
// reproduction methodology.
package socialtrust

import (
	"net/http"

	"socialtrust/internal/audit"
	"socialtrust/internal/core"
	"socialtrust/internal/experiments"
	"socialtrust/internal/fault"
	"socialtrust/internal/interest"
	"socialtrust/internal/manager"
	"socialtrust/internal/obs"
	"socialtrust/internal/obs/event"
	"socialtrust/internal/obs/health"
	"socialtrust/internal/obs/span"
	"socialtrust/internal/rating"
	"socialtrust/internal/reputation"
	"socialtrust/internal/reputation/ebay"
	"socialtrust/internal/reputation/eigentrust"
	"socialtrust/internal/reputation/trustguard"
	"socialtrust/internal/sim"
	"socialtrust/internal/socialgraph"
	"socialtrust/internal/sybil"
	"socialtrust/internal/trace"
)

// Social-network substrate (internal/socialgraph).
type (
	// Graph is the undirected social multigraph with typed relationships
	// and a directed interaction-frequency table.
	Graph = socialgraph.Graph
	// NodeID identifies a peer in the social graph.
	NodeID = socialgraph.NodeID
	// Relationship is a typed social tie between two peers.
	Relationship = socialgraph.Relationship
	// RelationshipKind is the type of a social relationship.
	RelationshipKind = socialgraph.RelationshipKind
	// ClosenessParams configures the Ωc computation.
	ClosenessParams = socialgraph.ClosenessParams
)

// Relationship kinds, ordered by social strength.
const (
	Friendship = socialgraph.Friendship
	Classmate  = socialgraph.Classmate
	Colleague  = socialgraph.Colleague
	Kinship    = socialgraph.Kinship
)

// NewGraph creates a social graph with n isolated nodes.
func NewGraph(n int) *Graph { return socialgraph.New(n) }

// Interest model (internal/interest).
type (
	// InterestSet is a node's interest profile V.
	InterestSet = interest.Set
	// Category identifies an interest category.
	Category = interest.Category
	// Tracker records per-node requests by category for the
	// falsification-resistant weighted similarity (Equation 11).
	Tracker = interest.Tracker
)

// NewInterestSet builds an interest set from categories.
func NewInterestSet(cats ...Category) InterestSet { return interest.NewSet(cats...) }

// NewTracker creates a request tracker for n nodes.
func NewTracker(n int) *Tracker { return interest.NewTracker(n) }

// Similarity computes Ωs(i,j) = |Vi∩Vj| / min(|Vi|,|Vj|) (Equation 1/7).
func Similarity(a, b InterestSet) float64 { return interest.Similarity(a, b) }

// Rating substrate (internal/rating).
type (
	// Rating is one service rating.
	Rating = rating.Rating
	// Ledger collects ratings for the current update interval.
	Ledger = rating.Ledger
	// Snapshot is a drained update interval.
	Snapshot = rating.Snapshot
)

// NewLedger creates a rating ledger for numNodes peers.
func NewLedger(numNodes int) *Ledger { return rating.NewLedger(numNodes) }

// Reputation engines.
type (
	// Engine is the pluggable reputation-system abstraction.
	Engine = reputation.Engine
	// EigenTrustConfig parameterizes the canonical EigenTrust engine.
	EigenTrustConfig = eigentrust.Config
	// EigenTrustEngine is the canonical power-iteration engine. Beyond the
	// Engine interface it exposes Stats, the per-update convergence
	// diagnostics.
	EigenTrustEngine = eigentrust.Engine
	// EigenTrustStats reports the last power iteration's iteration count,
	// final L1 residual, and whether it converged before the MaxIter cap.
	EigenTrustStats = eigentrust.Stats
)

// NewEigenTrustEngine builds a canonical (power-iteration) EigenTrust
// engine.
func NewEigenTrustEngine(cfg EigenTrustConfig) *EigenTrustEngine { return eigentrust.New(cfg) }

// NewEBayEngine builds an eBay-style engine for numNodes peers.
func NewEBayEngine(numNodes int) Engine { return ebay.New(numNodes) }

// TrustGuardConfig parameterizes the TrustGuard-style engine.
type TrustGuardConfig = trustguard.Config

// NewTrustGuardEngine builds a TrustGuard-style engine (credibility-weighted
// feedback + fluctuation-penalized temporal blend).
func NewTrustGuardEngine(cfg TrustGuardConfig) Engine { return trustguard.New(cfg) }

// SocialTrust core (internal/core).
type (
	// Filter is the SocialTrust collusion filter; it implements Engine.
	Filter = core.SocialTrust
	// FilterConfig parameterizes the filter.
	FilterConfig = core.Config
	// Behavior identifies the suspicious pattern a pair matched (B1–B4).
	Behavior = core.Behavior
	// PairAdjustment records how one rater→ratee pair was re-weighted.
	PairAdjustment = core.PairAdjustment
	// FilterReport summarizes one interval's filtering pass.
	FilterReport = core.Report
)

// Suspicious collusion behavior patterns (Section 3 of the paper).
const (
	B1 = core.B1 // distant pair, frequent high ratings
	B2 = core.B2 // close pair, low-reputed ratee, frequent high ratings
	B3 = core.B3 // few common interests, frequent high ratings
	B4 = core.B4 // many common interests, frequent low ratings
)

// NewFilter wraps inner with the SocialTrust collusion filter. sets must
// hold one interest profile per node; tracker may be nil unless
// cfg.WeightedSimilarity is set.
func NewFilter(cfg FilterConfig, g *Graph, sets []InterestSet, tracker *Tracker, inner Engine) *Filter {
	return core.New(cfg, g, sets, tracker, inner)
}

// Simulation testbed (internal/sim).
type (
	// SimConfig holds every Section 5.1 experiment parameter.
	SimConfig = sim.Config
	// SimResult is the outcome of one simulation run.
	SimResult = sim.Result
	// CollusionModel selects PCM, MCM, MMM or no collusion.
	CollusionModel = sim.CollusionModel
	// EngineKind selects the underlying reputation system.
	EngineKind = sim.EngineKind
	// Network is a fully constructed simulation instance.
	Network = sim.Network
	// NodeType classifies simulated peers.
	NodeType = sim.NodeType
	// ChurnConfig parameterizes population churn: per-cycle departure and
	// rejoin probabilities and the fraction of rejoins that whitewash
	// (return under a fresh identity).
	ChurnConfig = sim.ChurnConfig
)

// Node types of the paper's node model.
const (
	Pretrusted = sim.Pretrusted
	Normal     = sim.Normal
	Colluder   = sim.Colluder
)

// Collusion models and engine kinds.
const (
	NoCollusion = sim.NoCollusion
	PCM         = sim.PCM
	MCM         = sim.MCM
	MMM         = sim.MMM

	EngineEigenTrust = sim.EngineEigenTrust
	EngineEBay       = sim.EngineEBay
	EngineTrustGuard = sim.EngineTrustGuard
)

// DefaultSimConfig returns the paper's Section 5.1 setup.
func DefaultSimConfig(model CollusionModel, engine EngineKind, b float64, socialTrust bool) SimConfig {
	return sim.DefaultConfig(model, engine, b, socialTrust)
}

// DefaultChurn returns a moderate churn regime: 5% of online non-pretrusted
// peers depart per cycle, half the offline population rejoins per cycle, and
// 10% of rejoins whitewash.
func DefaultChurn() ChurnConfig { return sim.DefaultChurn() }

// RunSim executes one simulation.
func RunSim(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// NewNetwork constructs a simulation instance without running it.
func NewNetwork(cfg SimConfig) (*Network, error) { return sim.NewNetwork(cfg) }

// Resource-manager overlay (internal/manager).
type (
	// ManagerOverlay is the distributed rating-collection overlay of the
	// paper's Section 4.3: sharded managers collect ratings and serve
	// reputation queries, with a periodic global update.
	ManagerOverlay = manager.Overlay
	// ManagerOptions tunes the overlay's fault tolerance: per-operation
	// timeouts, retry attempts/backoff, the drain deadline, and an optional
	// fault-injection plan. The zero value reproduces the seed overlay.
	ManagerOptions = manager.Options
	// ManagerDrainStatus reports how one update interval's drain degraded:
	// which shards were recovered from replicas and which were lost.
	ManagerDrainStatus = manager.DrainStatus
)

// Typed overlay failures. Submit and Reputation return ErrShardDown when the
// responsible shard (and, in fault-tolerant mode, its replica holder) is
// crashed, ErrTimeout when an armed deadline expires or the fault plan drops
// every delivery attempt, and ErrClosed after Close.
var (
	ErrManagerClosed = manager.ErrClosed
	ErrShardDown     = manager.ErrShardDown
	ErrTimeout       = manager.ErrTimeout
)

// NewManagerOverlay starts an overlay of numManagers manager goroutines
// fronting the given engine (bare or SocialTrust-wrapped).
func NewManagerOverlay(numNodes, numManagers int, engine Engine) (*ManagerOverlay, error) {
	return manager.New(numNodes, numManagers, engine)
}

// NewManagerOverlayWithOptions starts an overlay with explicit fault-tolerance
// options: replica mirroring to the successor shard, bounded-backoff retries,
// timeouts, and (optionally) a deterministic fault-injection plan.
func NewManagerOverlayWithOptions(numNodes, numManagers int, engine Engine, opts ManagerOptions) (*ManagerOverlay, error) {
	return manager.NewWithOptions(numNodes, numManagers, engine, opts)
}

// Fault injection (internal/fault).
type (
	// FaultConfig declares a deterministic fault regime: message drop /
	// delay / duplication rates at the manager mailbox boundary, plus
	// random or scheduled shard crashes, all derived from one seed.
	FaultConfig = fault.Config
	// FaultPlan is an armed fault regime; the overlay consults it on every
	// delivery and at every update-interval boundary, and it logs each
	// injected event in a deterministic, replayable sequence.
	FaultPlan = fault.Plan
	// FaultEvent is one injected fault in the plan's append-only log.
	FaultEvent = fault.Event
	// FaultCrash schedules one deterministic shard outage.
	FaultCrash = fault.Crash
)

// NewFaultPlan arms a fault regime over the given shard count. Pass the plan
// to ManagerOptions.Fault (and derive churn/faults in simulations through
// SimConfig.Faults instead).
func NewFaultPlan(cfg FaultConfig, shards int) (*FaultPlan, error) {
	return fault.NewPlan(cfg, shards)
}

// Sybil defense (internal/sybil).
type (
	// SybilDetector is a SybilGuard-style random-route detector over the
	// social graph, used to prune fabricated identity clusters before
	// SocialTrust computes its social signals.
	SybilDetector = sybil.Detector
	// SybilConfig parameterizes the detector.
	SybilConfig = sybil.Config
)

// NewSybilDetector creates a detector over a frozen social graph.
func NewSybilDetector(g *Graph, cfg SybilConfig) *SybilDetector { return sybil.New(g, cfg) }

// Overstock trace substrate (internal/trace).
type (
	// TraceConfig parameterizes the synthetic Overstock trace generator.
	TraceConfig = trace.Config
	// TraceDataset is a generated trace with its Section 3 analyzers.
	TraceDataset = trace.Dataset
)

// DefaultTraceConfig returns the scaled-down default trace configuration.
func DefaultTraceConfig() TraceConfig { return trace.Default() }

// GenerateTrace builds a synthetic Overstock-like trace.
func GenerateTrace(cfg TraceConfig) (*TraceDataset, error) { return trace.Generate(cfg) }

// Experiment harness (internal/experiments).
type (
	// Experiment is one registered table/figure reproduction.
	Experiment = experiments.Spec
	// ExperimentOptions tunes experiment execution.
	ExperimentOptions = experiments.Options
)

// Experiments returns every registered experiment sorted by id.
func Experiments() []Experiment { return experiments.All() }

// RunExperiment executes a registered experiment by id.
func RunExperiment(id string, o ExperimentOptions, w interface{ Write([]byte) (int, error) }) error {
	return experiments.Run(id, o, w)
}

// Observability (internal/obs).
//
// Every subsystem records named counters, gauges, and latency histograms
// into a process-wide registry. Recording is off by default and costs ~1 ns
// per call site while disabled; EnableMetrics (or ServeMetrics) turns it on.
type (
	// MetricsSnapshot is a point-in-time copy of every registered metric,
	// with cumulative histogram buckets.
	MetricsSnapshot = obs.Snapshot
)

// EnableMetrics turns on metric recording process-wide.
func EnableMetrics() { obs.Enable() }

// MetricsEnabled reports whether metric recording is on.
func MetricsEnabled() bool { return obs.Enabled() }

// ReadMetricsSnapshot captures the current value of every registered metric.
func ReadMetricsSnapshot() MetricsSnapshot { return obs.ReadSnapshot() }

// WriteMetricsText writes all metrics in Prometheus text exposition format.
func WriteMetricsText(w interface{ Write([]byte) (int, error) }) error { return obs.WriteText(w) }

// WriteMetricsJSON writes all metrics as an indented JSON document.
func WriteMetricsJSON(w interface{ Write([]byte) (int, error) }) error { return obs.WriteJSON(w) }

// MetricsHandler returns an http.Handler serving /metrics (Prometheus text)
// and /metrics.json; with pprofToo it also mounts the net/http/pprof
// profiling endpoints under /debug/pprof/.
func MetricsHandler(pprofToo bool) http.Handler { return obs.Handler(pprofToo) }

// ServeMetrics starts a background HTTP server for MetricsHandler on addr
// and enables metric recording. Close the returned server when done.
func ServeMetrics(addr string, pprofToo bool) (*http.Server, error) { return obs.Serve(addr, pprofToo) }

// Decision-audit layer (internal/obs/event + internal/audit).
//
// Beyond the aggregate metrics above, the flight recorder captures
// structured per-decision events: one FilterDecisionEvent per shrunk rating
// pair (with the full B1–B4 evidence chain), per-cycle simulator series, and
// manager-overlay operations. Like metrics, recording is off by default and
// costs ~1 ns per call site while disabled. SimConfig.AuditDir automates the
// whole loop for simulation runs; cmd/socialtrust-audit analyzes the output.
type (
	// AuditEvent is one flight-recorder entry (exactly one payload set).
	AuditEvent = event.Event
	// FilterDecisionEvent records why one rating pair was shrunk.
	FilterDecisionEvent = event.FilterDecision
	// CycleSeriesEvent is one simulation cycle's time-series record.
	CycleSeriesEvent = event.CycleSeries
	// ManagerOverlayEvent records one manager-overlay drain or gossip run.
	ManagerOverlayEvent = event.ManagerEvent
	// FlightRecorder is the bounded ring buffer behind the audit layer.
	FlightRecorder = event.Recorder
	// AuditGroundTruth is the serialized collusion truth of one simulation.
	AuditGroundTruth = audit.GroundTruth
	// AuditTruthEdge is one directed collusion rating edge.
	AuditTruthEdge = audit.TruthEdge
	// DetectionReport scores filter decisions against ground truth.
	DetectionReport = audit.Report
	// DetectionScore is one behavior's precision/recall/F1 row.
	DetectionScore = audit.BehaviorScore
)

// EnableFlightRecorder installs a fresh process-wide flight recorder holding
// at most capacity events (the package default for capacity <= 0) and
// returns it.
func EnableFlightRecorder(capacity int) *FlightRecorder { return event.Enable(capacity) }

// DisableFlightRecorder uninstalls the process-wide flight recorder.
func DisableFlightRecorder() { event.Disable() }

// FlightRecorderEnabled reports whether a flight recorder is installed.
func FlightRecorderEnabled() bool { return event.Enabled() }

// DrainAuditEvents drains the process-wide flight recorder (nil while
// disabled).
func DrainAuditEvents() []AuditEvent { return event.Drain() }

// WriteAuditDir writes one run's audit trail (ground truth + events) in the
// layout cmd/socialtrust-audit consumes.
func WriteAuditDir(dir string, gt AuditGroundTruth, events []AuditEvent) error {
	return audit.WriteDir(dir, gt, events)
}

// LoadAuditDir reads an audit directory written by WriteAuditDir (or a
// simulation run with SimConfig.AuditDir set).
func LoadAuditDir(dir string) (AuditGroundTruth, []AuditEvent, error) { return audit.LoadDir(dir) }

// ScoreDetection joins filter decisions against ground truth into
// per-behavior, per-cycle precision/recall/F1.
func ScoreDetection(gt AuditGroundTruth, events []AuditEvent) DetectionReport {
	return audit.Score(gt, events)
}

// LoadFaultEvents reads the injected-fault log an audited fault-injection run
// leaves next to its audit trail. It returns (nil, nil) when the run injected
// no faults (no log file).
func LoadFaultEvents(dir string) ([]FaultEvent, error) { return audit.LoadFaultEvents(dir) }

// Interval tracing layer (internal/obs/span + internal/audit).
//
// The third observability tier: hierarchical wall-time spans over the
// update-interval pipeline (overlay ingest → drain → SocialTrust adjust →
// engine iteration), rolled up into a per-interval phase attribution. Like
// the metrics and the flight recorder, tracing is off by default and costs a
// nil check per call site while disabled, and it never changes results —
// tracing on vs off is bit-identical in reputations, detection tables, and
// audit event streams. SimConfig.TraceDir automates the loop for simulation
// runs; cmd/socialtrust-trace analyzes the exported trace.
type (
	// TraceSpan is one finished span of a traced run.
	TraceSpan = span.Span
	// TraceSpanAttr is one typed key/value attribute on a span.
	TraceSpanAttr = span.Attr
	// TraceAttribution is one trace's per-phase wall-time rollup.
	TraceAttribution = span.Attribution
	// SpanRecorder is the bounded ring buffer behind the tracing layer.
	SpanRecorder = span.Recorder
	// TraceContext addresses a live span so children can be attached across
	// goroutine (overlay mailbox) boundaries.
	TraceContext = span.Context
	// PhaseSeconds is the per-interval phase attribution embedded in a
	// traced run's CycleSeriesEvent.
	PhaseSeconds = event.PhaseSeconds
)

// EnableTracing installs a fresh process-wide span recorder holding at most
// capacity spans (the package default for capacity <= 0) and returns it.
func EnableTracing(capacity int) *SpanRecorder { return span.Enable(capacity) }

// DisableTracing uninstalls the process-wide span recorder.
func DisableTracing() { span.Disable() }

// TracingEnabled reports whether a span recorder is installed.
func TracingEnabled() bool { return span.Enabled() }

// WriteTraceDir writes a traced run's span stream (JSONL plus the Chrome
// trace-event export) into dir, next to any audit streams already there.
func WriteTraceDir(dir string, spans []TraceSpan) error { return audit.WriteTrace(dir, spans) }

// LoadTraceDir reads the span stream of a trace (or audit) directory. It
// returns (nil, nil) when the run was not traced (no trace file).
func LoadTraceDir(dir string) ([]TraceSpan, error) { return audit.LoadTrace(dir) }

// ReadTraceSpans parses a JSONL span stream (one span per line) as written
// by WriteTraceDir.
func ReadTraceSpans(r interface{ Read([]byte) (int, error) }) ([]TraceSpan, error) {
	return span.ReadJSONL(r)
}

// AttributeTrace recomputes per-trace phase attributions offline from an
// exported span stream, ordered by trace ID (one trace per update interval
// for simulation runs).
func AttributeTrace(spans []TraceSpan) []TraceAttribution { return span.Attribute(spans) }

// Ops plane (internal/obs/health).
//
// The fourth observability tier: a background sampler that periodically
// snapshots the metric registry plus runtime stats into a bounded
// time-series window, rule-driven watchdogs judging per-component health
// (ok/degraded/failing) from the deltas, and /healthz + /readyz + /statusz
// probe handlers. Like every other tier it is off by default, only *reads*
// state, and never changes results — health on vs off is bit-identical in
// reputations, detection tables, and the deterministic audit streams.
// Watchdog transitions land in the flight recorder as HealthEvents (their
// own audit file) and in /statusz; cmd/socialtrust-top renders it all live.
type (
	// HealthConfig parameterizes the sampler (cadence, window, SLO budget,
	// watchdog thresholds); its zero value is usable.
	HealthConfig = health.Config
	// HealthSampler is the background sampler + watchdog evaluator.
	HealthSampler = health.Sampler
	// HealthStatus is the tri-state verdict (ok/degraded/failing).
	HealthStatus = health.Status
	// HealthSample is one tick's curated metric snapshot.
	HealthSample = health.Sample
	// HealthStatusPayload is the full /statusz document.
	HealthStatusPayload = health.StatusPayload
	// HealthComponentStatus is one component's aggregated verdict.
	HealthComponentStatus = health.ComponentStatus
	// HealthEvent records one watchdog status transition.
	HealthEvent = event.HealthEvent
	// RuntimeStats is one CaptureRuntimeStats sample of process state.
	RuntimeStats = obs.RuntimeStats
)

// Health verdict values, ordered by severity.
const (
	HealthOK       = health.StatusOK
	HealthDegraded = health.StatusDegraded
	HealthFailing  = health.StatusFailing
)

// StartHealthSampler launches the background health sampler and installs it
// process-wide. Stop the returned sampler when done.
func StartHealthSampler(cfg HealthConfig) *HealthSampler { return health.Start(cfg) }

// CurrentHealthSampler returns the installed sampler, or nil while off.
func CurrentHealthSampler() *HealthSampler { return health.Current() }

// HealthHandler mounts /healthz, /readyz and /statusz over base (typically
// MetricsHandler, so one mux serves probes, metrics and pprof together).
func HealthHandler(s *HealthSampler, base http.Handler) http.Handler {
	return health.Handler(s, base)
}

// ServeHealth starts the combined ops server (probes + metrics + optional
// pprof) on addr and enables metric recording. Close the returned server
// and Stop the sampler when done.
func ServeHealth(addr string, pprofToo bool, s *HealthSampler) (*http.Server, error) {
	return health.Serve(addr, pprofToo, s)
}

// CaptureRuntimeStats samples goroutine count, memory statistics and (on
// Linux) resident-set size, refreshing the runtime_* gauges, and returns the
// sample. A running health sampler drives this automatically on its tick.
func CaptureRuntimeStats() RuntimeStats { return obs.CaptureRuntime() }
