package sim

import (
	"netsession/internal/faults"
	"netsession/internal/geo"
	"netsession/internal/selection"
	"netsession/internal/telemetry"
	"netsession/internal/trace"
)

// The download model's fixed numbers: one value in every scenario, so they
// are constants here rather than ScenarioConfig fields. The workload model
// is trace.DefaultWorkloadConfig, seeded and sized from the scenario.
const (
	// connFailureProb is the chance an instructed peer connection fails
	// anyway (stale directory entry, host asleep); additional candidates
	// are used in its place (§3.7).
	connFailureProb float64 = 0.15

	// edgePerConnMbps is the backstop rate of the single always-open edge
	// connection while peers are serving a download (§3.3).
	edgePerConnMbps float64 = 2.5
	// edgeOnlyMbps is the aggregate edge throughput when no peers serve a
	// download (p2p disabled, or none found): the DLM opens multiple edge
	// connections and is limited only by the access link.
	edgeOnlyMbps float64 = 12

	// refreshIntervalHours is how often an online peer re-announces its
	// cached objects, keeping its directory soft state fresh.
	refreshIntervalHours float64 = 6
	// cacheTTLHours is how long completed downloads stay registered.
	cacheTTLHours float64 = 14 * 24
	// maxUploadConnsPerPeer is the client's globally configured limit on
	// simultaneous upload connections (§3.4).
	maxUploadConnsPerPeer = 8

	// Outcome model (§5.2): a small immediate-abort probability plus an
	// abandonment clock make long downloads terminate more often
	// (Figure 7); failures are rare and mostly user-side.
	immediateAbortProb float64 = 0.02
	abortRatePerHour   float64 = 0.08
	failOtherProb      float64 = 0.028
	failSystemInfra    float64 = 0.001
	failSystemP2P      float64 = 0.002

	// streamStartupPieces is the playback buffer a stream fills before it
	// starts; stream metrics count pieces of the catalog's piece size.
	streamStartupPieces = 2

	// snapshotIntervalHours is how often (in virtual time) the telemetry
	// gauges refresh and a snapshot line goes to Logf.
	snapshotIntervalHours float64 = 24
)

// ScenarioConfig parameterizes one simulated deployment month.
type ScenarioConfig struct {
	Seed int64

	// Workers bounds how many region shards simulate concurrently.
	// Non-positive selects one worker per available CPU; 1 runs the shards
	// sequentially in region order. Results are byte-identical for every
	// worker count: shards share no mutable state and their logs are
	// merged by (timestamp, region).
	Workers int

	// Population and workload scale (the paper's trace has 26M peers and
	// 12.5M downloads; experiments run a proportionally smaller world).
	NumPeers       int
	Days           int
	TotalDownloads int

	Atlas   geo.AtlasConfig
	Catalog trace.CatalogConfig

	// Policy is the control plane's selection policy.
	Policy selection.Policy
	// MaxServersPerDownload caps concurrent serving peers per download
	// (the client's swarm fan-out).
	MaxServersPerDownload int

	// BackstopEnabled disables the edge connection when false (the
	// pure-p2p ablation).
	BackstopEnabled bool

	// Session churn: exponential on/off times, in hours.
	SessionOnHours  float64
	SessionOffHours float64
	// PerObjectUploadCap caps serving sessions per (peer, object) (§3.9);
	// zero disables the cap.
	PerObjectUploadCap int
	// DNFailureAtDay, when positive, wipes every region directory at the
	// start of that day — the large-scale DN failure of §3.8. Soft state
	// recovers via the peers' periodic re-announcements.
	DNFailureAtDay int
	// SeedCopiesPerObject pre-seeds each p2p-enabled object at this many
	// upload-enabled peers at time zero. The hybrid system needs no seeds
	// (the edge is the origin); the pure-p2p ablation does.
	SeedCopiesPerObject int
	// UploadEnabledOverride, when in [0,1], replaces the per-customer
	// Table 4 upload-enable defaults with a uniform fraction — the
	// contribution-sweep ablation. Negative keeps the calibrated defaults.
	UploadEnabledOverride float64

	// Streaming delivery (§3.4). When StreamBitrateBps and StreamFraction
	// are both positive, that fraction of workload requests is consumed as
	// a deadline-driven stream: playback starts once streamStartupPieces
	// have arrived and then drains at the bitrate, and the flow's record
	// carries a StreamStats sub-record (startup delay, rebuffers, deadline
	// misses) exactly like a live streaming client's log entry. Draws come
	// from a dedicated per-shard RNG stream, so the zero value (disabled)
	// leaves base scenarios byte-identical.
	StreamFraction   float64
	StreamBitrateBps int64

	// Faults configures the extra mid-download server-failure events of the
	// chaos harness. It draws from its own seeded RNG, so the zero value
	// (disabled) leaves every base-scenario draw — and therefore the whole
	// result — byte-identical.
	Faults faults.SimConfig

	// RegionSample, when non-empty, simulates only the listed network
	// regions: peers homed elsewhere are never instantiated and no events
	// run for their shards. Region shards are causally independent — no
	// cross-shard reads, per-shard RNG streams derived from (seed, region)
	// — so the sampled shards' logs are byte-identical to the same regions
	// of a full run. This is how tests exercise paper-scale per-shard
	// populations without paying for all twelve shards.
	RegionSample []geo.NetworkRegion

	// Telemetry is the metrics registry; nil creates a private one,
	// returned in Result.Telemetry either way.
	Telemetry *telemetry.Registry
	// Logf receives a snapshot line every snapshotIntervalHours of virtual
	// time; nil discards them (the gauges still update).
	Logf func(format string, args ...any)
}

// DefaultScenario returns the scale used by the experiment harness: large
// enough that every figure's shape is visible, small enough to run in
// seconds.
func DefaultScenario() ScenarioConfig {
	atlas := geo.DefaultAtlasConfig()
	cat := trace.DefaultCatalogConfig()
	// Directory entries are refreshed while peers stay online, so the
	// selector's soft-state TTL only filters genuinely stale state.
	policy := selection.DefaultPolicy()
	policy.SoftStateTTLMs = 12 * 3600 * 1000
	return ScenarioConfig{
		Seed:           1,
		NumPeers:       20_000,
		Days:           31,
		TotalDownloads: 100_000,

		Atlas:   atlas,
		Catalog: cat,

		Policy:                policy,
		MaxServersPerDownload: 40,
		BackstopEnabled:       true,

		SessionOnHours:        10,
		SessionOffHours:       8,
		PerObjectUploadCap:    50,
		UploadEnabledOverride: -1,
	}
}

// StreamingScenario is the deadline-driven delivery family: a hotter Zipf
// catalog (popular episodes dominate), shorter sessions so serving peers
// churn mid-stream, and most requests consumed as 3 Mbps streams against
// the heterogeneous access-link population.
func StreamingScenario() ScenarioConfig {
	cfg := DefaultScenario()
	cfg.Catalog.ZipfAlpha = 1.1
	cfg.SessionOnHours = 4
	cfg.SessionOffHours = 6
	cfg.StreamFraction = 0.8
	cfg.StreamBitrateBps = 3_000_000
	return cfg
}

// SmallScenario is a fast scale for unit tests and benches.
func SmallScenario() ScenarioConfig {
	cfg := DefaultScenario()
	cfg.NumPeers = 4000
	cfg.Days = 10
	cfg.TotalDownloads = 15_000
	cfg.Catalog.FilesPerCustomer = 150
	cfg.Atlas.TailCountries = 20
	return cfg
}

// XLScenario is the region-sharded simulator's scale target: an order of
// magnitude more peers than SmallScenario and three times DefaultScenario,
// still a full month of virtual time. `make bench` runs it under a
// wall-clock budget to catch hot-path regressions at scale.
func XLScenario() ScenarioConfig {
	cfg := DefaultScenario()
	cfg.NumPeers = 60_000
	cfg.Days = 31
	cfg.TotalDownloads = 300_000
	return cfg
}

// MScenario is the quarter-million-peer month: the intermediate step between
// XL and the paper-scale XXL tier, sized so a full run still fits an
// attended benchmark session.
func MScenario() ScenarioConfig {
	cfg := DefaultScenario()
	cfg.NumPeers = 250_000
	cfg.Days = 31
	cfg.TotalDownloads = 1_250_000
	return cfg
}

// XXLScenario is the million-peer simulated month — the memory-lean engine's
// scale target (the paper's trace has 26M peers; one simulated million is
// the same per-shard order of magnitude across 12 regions). Runs are long:
// the gated BenchmarkSimXXL budgets tens of minutes of wall clock and
// asserts peak RSS, and everything downstream (segment export, analyzer)
// must stream rather than materialize.
func XXLScenario() ScenarioConfig {
	cfg := DefaultScenario()
	cfg.NumPeers = 1_000_000
	cfg.Days = 31
	cfg.TotalDownloads = 2_000_000
	return cfg
}
