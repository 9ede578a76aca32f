// Package controlplane implements the NetSession control plane (§3.6): the
// connection nodes (CNs) that terminate the peers' persistent TCP control
// connections, the database nodes (DNs) that hold the object→peer directory,
// the monitoring nodes that ingest operational reports, and the composition
// that wires them together with region-local routing, soft-state recovery
// (RE-ADD, §3.8) and rate-limited reconnection.
package controlplane

import (
	"net"
	"net/netip"
	"sync"
	"time"

	"netsession/internal/accounting"
	"netsession/internal/analysis"
	"netsession/internal/cluster"
	"netsession/internal/edge"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/logpipe"
	"netsession/internal/protocol"
	"netsession/internal/selection"
	"netsession/internal/telemetry"
)

// Config assembles a control-plane node (StartNode).
type Config struct {
	// NodeID is this node's cluster identity; ApplyRingView compares ring
	// owners against it. Empty selects the bound status address, which is
	// unique and, for a fixed StatusAddr, stable across restarts.
	NodeID string
	// CNs is how many connection nodes to start on loopback; zero selects 1.
	CNs int
	// StatusAddr is the operator HTTP address (status, metrics, log ingest,
	// drain and the cluster endpoints); empty selects 127.0.0.1:0.
	StatusAddr string
	// LogDir, when set, holds the node's durable state: every accepted
	// download record is spilled to rotated segments directly in LogDir — the
	// durable month of logs the paper's analyses read (§4.1), with the
	// in-memory collector keeping only a recent window — and the batch-ack
	// store lives under LogDir/acks, so a batch acked before a restart is
	// still deduplicated after it. A node started on a LogDir that holds
	// segments folds them into its live analytics first. Without LogDir the
	// ack store is memory-only.
	LogDir string
	// Seeds are other cluster members to join: entries with an ID start out
	// alive, address-only entries are identified by their first probe (seed
	// exchange discovers the rest). No seeds make a ring of one that other
	// nodes can join.
	Seeds []cluster.Node
	// ProbeInterval is how often members probe each other's status surface;
	// zero selects 1s.
	ProbeInterval time.Duration
	// FailAfter is how many consecutive probe failures mark a member dead
	// (triggering region handoff); zero selects 3.
	FailAfter int
	// Logf receives membership and ack-sync logging; nil discards.
	Logf func(format string, args ...any)
	// Scape resolves declared peer IPs to (location, AS) for region routing
	// and selection locality.
	Scape *geo.EdgeScape
	// Minter verifies the edge-issued search tokens peers present on
	// queries.
	Minter *edge.TokenMinter
	// Collector receives usage records.
	Collector *accounting.Collector
	// ClientConfig is pushed to peers on login.
	ClientConfig edge.ClientConfig
	// MaxSessionsPerCN sheds logins beyond this with a retry-after, the
	// §3.8 rate-limited recovery. Zero means unlimited.
	MaxSessionsPerCN int
	// DNRebuildWindowMs is how long a DN that lost its database answers
	// queries edge-only while peers RE-ADD their holdings (§3.8). Zero
	// selects 2000ms.
	DNRebuildWindowMs int64
	// Telemetry is the metrics registry; nil creates a private one. It is
	// served on the status server's GET /metrics and GET /v1/telemetry.
	Telemetry *telemetry.Registry
	// MaxLogRecords caps how many records of each kind the collector keeps
	// in memory; zero selects the accounting default, negative is unbounded.
	MaxLogRecords int
	// JoinExisting marks a node joining an already-running cluster: the
	// first ring view it applies treats its assigned regions as real
	// takeovers (rebuild window and all) instead of a silent boot
	// assignment, because peers in those regions are already attached to
	// other nodes and must be rebalanced over. The membership then defers its
	// first view until discovery has found another member.
	JoinExisting bool
	// ConnWrap, when set, wraps every accepted CN connection — the hook
	// fault-injection harnesses use to make control sessions drop or lag
	// (chaos testing the §3.8 reconnect path). Nil leaves conns untouched.
	ConnWrap func(net.Conn) net.Conn
	// nowMs supplies time; tests inject a fake clock. Nil uses wall clock.
	nowMs func() int64
}

// cpMetrics pre-resolves the control plane's metric handles; CN session
// loops touch these on every message, so lookups must not happen there.
type cpMetrics struct {
	reg             *telemetry.Registry
	logins          *telemetry.Counter
	loginsShed      *telemetry.Counter
	sessions        *telemetry.Gauge
	queries         *telemetry.Counter
	queriesRejected *telemetry.Counter
	queryDurMs      *telemetry.Histogram
	registers       *telemetry.Counter
	unregisters     *telemetry.Counter
	statsReports    *telemetry.Counter
	readds          *telemetry.Counter

	// DN-loss recovery series, registered eagerly per region so operators
	// see zeroes (not gaps) before the first failure: announcements absorbed
	// during a rebuild window, a rebuilding flag, and the window's duration.
	rebuildAnnounces [geo.NumRegions]*telemetry.Counter
	rebuilding       [geo.NumRegions]*telemetry.Gauge
	rebuildMs        *telemetry.Histogram

	// Cluster series, eager for the same reason: ring size, per-region
	// ownership handoffs, and logins redirected to another node's CN.
	ringNodes        *telemetry.Gauge
	regionHandoffs   [geo.NumRegions]*telemetry.Counter
	loginsRedirected *telemetry.Counter

	// Planned-drain series, eager so a cluster that has never drained shows
	// zeroes: regions handed off with their directory snapshot, and entries
	// transferred inside those snapshots.
	drainRegions *telemetry.Counter
	drainEntries *telemetry.Counter
}

func newCPMetrics(reg *telemetry.Registry) *cpMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &cpMetrics{
		reg:    reg,
		logins: reg.Counter("cp_logins_total", "accepted peer logins", nil),
		loginsShed: reg.Counter("cp_logins_shed_total",
			"logins shed by per-CN session limits (rate-limited recovery)", nil),
		sessions: reg.Gauge("cp_sessions", "live peer control sessions", nil),
		queries:  reg.Counter("cp_queries_total", "peer-directory queries", nil),
		queriesRejected: reg.Counter("cp_queries_rejected_total",
			"queries rejected for invalid or non-p2p tokens", nil),
		queryDurMs: reg.Histogram("cp_query_duration_ms",
			"DN directory selection latency in milliseconds",
			telemetry.DurationBucketsMs, nil),
		registers:   reg.Counter("cp_registers_total", "directory registrations", nil),
		unregisters: reg.Counter("cp_unregisters_total", "directory withdrawals", nil),
		statsReports: reg.Counter("cp_stats_reports_total",
			"download usage reports received", nil),
		readds: reg.Counter("cp_readds_total",
			"RE-ADD soft-state recovery replies processed", nil),
		rebuildMs: reg.Histogram("dn_rebuild_ms",
			"duration of DN directory rebuild windows in milliseconds",
			telemetry.DurationBucketsMs, nil),
		ringNodes: reg.Gauge("cp_ring_nodes",
			"control-plane nodes alive on the cluster ring", nil),
		loginsRedirected: reg.Counter("cp_logins_redirected_total",
			"logins redirected to the ring owner of the peer's region", nil),
		drainRegions: reg.Counter("cp_drain_regions_total",
			"regions handed off with a directory snapshot during planned drains", nil),
		drainEntries: reg.Counter("cp_drain_entries_transferred_total",
			"directory entries pushed to new owners during planned drains", nil),
	}
	for r := 0; r < geo.NumRegions; r++ {
		label := telemetry.Labels{"region": geo.NetworkRegion(r).String()}
		m.rebuildAnnounces[r] = reg.Counter("dn_rebuild_announces_total",
			"registrations absorbed while the region's DN was rebuilding", label)
		m.rebuilding[r] = reg.Gauge("dn_rebuilding",
			"1 while the region's DN is inside a rebuild window", label)
		m.regionHandoffs[r] = reg.Counter("cp_region_handoffs_total",
			"times this node took over the region from the cluster ring", label)
	}
	// A control plane that never joins a cluster is a ring of one.
	m.ringNodes.Set(1)
	return m
}

// ControlPlane is the assembled control plane: one DN (directory) per
// network region plus any number of CNs, sharing a global session registry
// used to route connect-to instructions between peers on different CNs
// ("The CN/DN system is interconnected across regions", §3.7).
type ControlPlane struct {
	cfg Config
	// policy is the peer-selection policy: selection.DefaultPolicy().
	policy    selection.Policy
	metrics   *cpMetrics
	ingest    *logpipe.Ingest
	analytics *cpAnalytics
	// geoLookup annotates logged IPs the way the paper's offline data set
	// is annotated with EdgeScape fields (§4.1), plus the network region.
	geoLookup analysis.GeoLookup

	dns [geo.NumRegions]*DN

	mu       sync.Mutex
	cns      []*CN
	sessions map[id.GUID]*session
	epoch    uint32

	// Ring-ownership state. Everything starts owned (the single-node case);
	// ApplyRingView flips regions as the cluster view changes.
	ownMu       sync.Mutex
	owned       [geo.NumRegions]bool
	ownerCN     [geo.NumRegions]string // redirect target when not owned
	ringApplied bool
	// transferMs records, per region, when a draining node pushed us its
	// directory snapshot; a takeover arriving inside the validity window
	// skips the rebuild entirely (the directory is already populated).
	transferMs [geo.NumRegions]int64
	// handoffSweep is how long an imported snapshot entry outlives its
	// peer's absence (transferValidityMs); tests shorten it.
	handoffSweep time.Duration

	// The node's durable state and cluster membership, set once by StartNode
	// before the status surface serves: the segment store (nil without a log
	// dir), the batch-ack store the ingest endpoint and the anti-entropy
	// endpoints share, and the membership the status handler gossips and the
	// drain path leaves.
	store  *logpipe.Store
	acks   *logpipe.AckStore
	member *cluster.Membership

	drainMu   sync.Mutex
	drained   bool
	drainHook func(DrainSummary)
}

// newControlPlane creates a control plane with one DN per region and no CNs
// yet; peerSeen is the ingest endpoint's cross-node dedup check.
func newControlPlane(cfg Config, store *logpipe.Store, acks *logpipe.AckStore, peerSeen func(key string) bool) *ControlPlane {
	if cfg.Collector == nil {
		cfg.Collector = accounting.NewCollector(nil)
	}
	cp := &ControlPlane{
		cfg:      cfg,
		policy:   selection.DefaultPolicy(),
		metrics:  newCPMetrics(cfg.Telemetry),
		sessions: make(map[id.GUID]*session),
		store:    store,
		acks:     acks,

		handoffSweep: transferValidityMs * time.Millisecond,
	}
	cp.analytics = newCPAnalytics(cp.metrics.reg)
	cp.geoLookup = analysis.ScapeLookup(cfg.Scape)
	cp.cfg.Collector.Configure(cfg.MaxLogRecords, cp.metrics.reg)
	cp.ingest = logpipe.NewIngest(logpipe.IngestConfig{
		Handle:    cp.ingestEntry,
		Acks:      acks,
		PeerSeen:  peerSeen,
		Telemetry: cp.metrics.reg,
	})
	for r := 0; r < geo.NumRegions; r++ {
		cp.owned[r] = true
	}
	if cp.cfg.DNRebuildWindowMs <= 0 {
		cp.cfg.DNRebuildWindowMs = 2000
	}
	for r := 0; r < geo.NumRegions; r++ {
		dn := NewDN(geo.NetworkRegion(r), cfg.Collector)
		region := r
		dn.onRebuildDone = func(elapsedMs float64) {
			cp.metrics.rebuildMs.Observe(elapsedMs)
			cp.metrics.rebuilding[region].Set(0)
		}
		cp.dns[r] = dn
	}
	return cp
}

// Metrics exposes the control plane's telemetry registry.
func (cp *ControlPlane) Metrics() *telemetry.Registry { return cp.metrics.reg }

// DN returns the database node serving a region.
func (cp *ControlPlane) DN(r geo.NetworkRegion) *DN { return cp.dns[int(r)] }

// Collector returns the accounting collector.
func (cp *ControlPlane) Collector() *accounting.Collector { return cp.cfg.Collector }

// LogIngest returns the log ingest endpoint (mounted on the status server's
// POST /v1/logs/batch); chaos tests flip faults on it at runtime.
func (cp *ControlPlane) LogIngest() *logpipe.Ingest { return cp.ingest }

// LogStore returns the durable segment store, or nil without a log dir.
func (cp *ControlPlane) LogStore() *logpipe.Store { return cp.store }

// Close shuts down all CNs.
func (cp *ControlPlane) Close() {
	cp.mu.Lock()
	cns := append([]*CN(nil), cp.cns...)
	cp.mu.Unlock()
	for _, cn := range cns {
		cn.Close()
	}
}

// FailDN simulates the loss of the DN for one region: its database is
// cleared, a rebuild window opens (during which queries answer edge-only,
// §3.8), and every connected peer in the region is asked to RE-ADD its
// object list. The window closes on its own even if no traffic arrives.
func (cp *ControlPlane) FailDN(r geo.NetworkRegion) {
	dn := cp.dns[int(r)]
	dn.dir.Clear()
	window := cp.cfg.DNRebuildWindowMs
	dn.StartRebuild(cp.now(), window)
	cp.metrics.rebuilding[int(r)].Set(1)
	time.AfterFunc(time.Duration(window)*time.Millisecond+50*time.Millisecond,
		func() { dn.Rebuilding(cp.now()) })
	cp.mu.Lock()
	var toAsk []*session
	for _, s := range cp.sessions {
		if s.region == r {
			toAsk = append(toAsk, s)
		}
	}
	cp.mu.Unlock()
	for _, s := range toAsk {
		s.send(&protocol.ReAdd{})
	}
}

// SessionCount returns the number of live peer sessions.
func (cp *ControlPlane) SessionCount() int {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return len(cp.sessions)
}

// Connected reports whether a peer currently holds a control connection.
func (cp *ControlPlane) Connected(g id.GUID) bool {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	_, ok := cp.sessions[g]
	return ok
}

func (cp *ControlPlane) now() int64 {
	if cp.cfg.nowMs != nil {
		return cp.cfg.nowMs()
	}
	return wallNowMs()
}

// register tracks a new session, replacing any stale session of the same
// GUID (e.g. after an abrupt reconnect).
func (cp *ControlPlane) register(s *session) {
	cp.mu.Lock()
	old := cp.sessions[s.guid]
	cp.sessions[s.guid] = s
	cp.metrics.sessions.Set(float64(len(cp.sessions)))
	cp.mu.Unlock()
	if old != nil && old != s {
		old.closeConn()
	}
}

func (cp *ControlPlane) unregister(s *session) {
	cp.mu.Lock()
	cur := cp.sessions[s.guid]
	if cur == s {
		delete(cp.sessions, s.guid)
	}
	cp.metrics.sessions.Set(float64(len(cp.sessions)))
	cp.mu.Unlock()
	// Departing peers leave the directory; their registrations are soft
	// state that they will re-announce on reconnect. A session replaced by
	// a reconnect of the same GUID in the same region leaves the entries to
	// its successor, which may already have registered them again.
	if cur != nil && cur != s && cur.region == s.region {
		return
	}
	cp.dns[int(s.region)].dir.DropPeer(s.guid)
}

// lookupSession finds a live session by GUID across all CNs.
func (cp *ControlPlane) lookupSession(g id.GUID) *session {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	return cp.sessions[g]
}

// locate resolves a login to its geo record. Unknown declared IPs fall back
// to a zero record in region 0 (live smoke tests without a synthetic
// identity).
func (cp *ControlPlane) locate(declaredIP string) geo.Record {
	if declaredIP != "" {
		if ip, err := netip.ParseAddr(declaredIP); err == nil {
			if rec, ok := cp.cfg.Scape.Lookup(ip); ok {
				return rec
			}
		}
	}
	return geo.Record{}
}
