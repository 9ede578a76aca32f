// Telemetry wiring for the NetSession Interface: the client's metric
// handles, the download-lifecycle trace log, STUN reflexive-address
// discovery, and the best-effort operational report uploads to the
// monitoring node ("peers upload information about their operation and about
// problems ... to these nodes", §3.6).
package peer

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/netip"
	"sync"
	"time"

	"netsession/internal/nat"
	"netsession/internal/telemetry"
)

// clientMetrics pre-resolves every metric the client's hot paths touch
// (piece arrivals, swarm dials, uploads); registry lookups happen once.
type clientMetrics struct {
	reg *telemetry.Registry

	piecesEdge     *telemetry.Counter
	piecesPeers    *telemetry.Counter
	bytesDownEdge  *telemetry.Counter
	bytesDownPeers *telemetry.Counter
	bytesUp        *telemetry.Counter

	swarmDials      *telemetry.Counter
	swarmDialErrors *telemetry.Counter
	corruptPieces   *telemetry.Counter

	edgeFetchMs  *telemetry.Histogram
	peerPieceMs  *telemetry.Histogram
	peerLookupMs *telemetry.Histogram

	// Resilience counters, registered eagerly so the series are present in
	// /metrics even before the first fault: retries by operation, breaker
	// trips by target, blacklisted swarm peers, and p2p degradations by
	// reason.
	retriesEdge      *telemetry.Counter
	retriesControl   *telemetry.Counter
	cpFailovers      *telemetry.Counter
	breakerTripsEdge *telemetry.Counter
	swarmBlacklist   *telemetry.Counter
	degradeStall     *telemetry.Counter
	degradeCorrupt   *telemetry.Counter

	// Crash-recovery counters, also eager: how many downloads restarted
	// from a persisted checkpoint, and how many verified pieces those
	// resumes recovered from the durable store instead of refetching.
	resumeTotal     *telemetry.Counter
	piecesRecovered *telemetry.Counter

	// Streaming-delivery series (§3.4), eager so dashboards can graph a
	// zero before the first stream: playback sessions, rebuffer events
	// and paused milliseconds, pieces that missed their play deadline,
	// urgent-window bytes rescued from the edge, and the startup-delay
	// distribution.
	streamSessions        *telemetry.Counter
	streamRebuffers       *telemetry.Counter
	streamRebufferMs      *telemetry.Counter
	streamDeadlineMisses  *telemetry.Counter
	streamEdgeRescueBytes *telemetry.Counter
	streamStartupMs       *telemetry.Histogram

	downloadsByOutcome map[string]*telemetry.Counter
	stunOK             *telemetry.Counter
	stunFail           *telemetry.Counter

	mu            sync.Mutex
	reportsByKind map[string]*telemetry.Counter
}

// newClientMetrics registers the client's series in a private registry.
func newClientMetrics() *clientMetrics {
	reg := telemetry.NewRegistry()
	m := &clientMetrics{
		reg: reg,
		piecesEdge: reg.Counter("peer_pieces_total",
			"verified pieces received, by source", telemetry.Labels{"source": "edge"}),
		piecesPeers: reg.Counter("peer_pieces_total",
			"verified pieces received, by source", telemetry.Labels{"source": "peer"}),
		bytesDownEdge: reg.Counter("peer_bytes_down_total",
			"bytes downloaded, by source", telemetry.Labels{"source": "edge"}),
		bytesDownPeers: reg.Counter("peer_bytes_down_total",
			"bytes downloaded, by source", telemetry.Labels{"source": "peer"}),
		bytesUp: reg.Counter("peer_bytes_up_total",
			"bytes uploaded to other peers", nil),
		swarmDials: reg.Counter("peer_swarm_dials_total",
			"outbound swarm connection attempts", nil),
		swarmDialErrors: reg.Counter("peer_swarm_dial_errors_total",
			"failed outbound swarm connection attempts", nil),
		corruptPieces: reg.Counter("peer_corrupt_pieces_total",
			"pieces that failed hash verification", nil),
		edgeFetchMs: reg.Histogram("peer_edge_fetch_ms",
			"edge HTTP piece fetch latency in milliseconds",
			telemetry.DurationBucketsMs, nil),
		peerPieceMs: reg.Histogram("peer_piece_transfer_ms",
			"swarm piece request-to-arrival latency in milliseconds",
			telemetry.DurationBucketsMs, nil),
		peerLookupMs: reg.Histogram("peer_lookup_ms",
			"control-plane peer query latency in milliseconds",
			telemetry.DurationBucketsMs, nil),
		retriesEdge: reg.Counter("peer_retries_total",
			"retried operations, by operation", telemetry.Labels{"op": "edge_fetch"}),
		retriesControl: reg.Counter("peer_retries_total",
			"retried operations, by operation", telemetry.Labels{"op": "control_reconnect"}),
		cpFailovers: reg.Counter("peer_cp_failovers_total",
			"control sessions re-established on a different CP node than the last one", nil),
		breakerTripsEdge: reg.Counter("peer_breaker_trips_total",
			"circuit-breaker trips, by target", telemetry.Labels{"target": "edge"}),
		swarmBlacklist: reg.Counter("peer_swarm_blacklist_total",
			"peers temporarily blacklisted after failed swarm dials", nil),
		degradeStall: reg.Counter("peer_p2p_degradations_total",
			"downloads that disabled p2p and fell back to edge-only, by reason",
			telemetry.Labels{"reason": "stall"}),
		degradeCorrupt: reg.Counter("peer_p2p_degradations_total",
			"downloads that disabled p2p and fell back to edge-only, by reason",
			telemetry.Labels{"reason": "corruption"}),
		resumeTotal: reg.Counter("peer_resume_total",
			"downloads resumed from a persisted checkpoint after a restart", nil),
		piecesRecovered: reg.Counter("peer_pieces_recovered_total",
			"verified pieces recovered from the durable store on resume instead of refetched", nil),
		streamSessions: reg.Counter("peer_stream_sessions_total",
			"deadline-driven streaming downloads started", nil),
		streamRebuffers: reg.Counter("peer_stream_rebuffer_events_total",
			"playback stalls after startup across streaming downloads", nil),
		streamRebufferMs: reg.Counter("peer_stream_rebuffer_ms_total",
			"total milliseconds playback spent paused in rebuffers", nil),
		streamDeadlineMisses: reg.Counter("peer_stream_deadline_misses_total",
			"pieces unavailable at their playback deadline", nil),
		streamEdgeRescueBytes: reg.Counter("peer_stream_edge_rescue_bytes_total",
			"urgent-window bytes fetched from the edge because no peer could meet the deadline", nil),
		streamStartupMs: reg.Histogram("peer_stream_startup_ms",
			"playback startup delay in milliseconds",
			telemetry.DurationBucketsMs, nil),
		downloadsByOutcome: make(map[string]*telemetry.Counter),
		stunOK: reg.Counter("peer_stun_discoveries_total",
			"STUN reflexive-address discoveries, by outcome", telemetry.Labels{"outcome": "ok"}),
		stunFail: reg.Counter("peer_stun_discoveries_total",
			"STUN reflexive-address discoveries, by outcome", telemetry.Labels{"outcome": "fail"}),
		reportsByKind: make(map[string]*telemetry.Counter),
	}
	return m
}

func (m *clientMetrics) downloadOutcome(outcome string) *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.downloadsByOutcome[outcome]
	if !ok {
		c = m.reg.Counter("peer_downloads_total",
			"finished downloads, by outcome", telemetry.Labels{"outcome": outcome})
		m.downloadsByOutcome[outcome] = c
	}
	return c
}

func (m *clientMetrics) reportKind(kind string) *telemetry.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.reportsByKind[kind]
	if !ok {
		c = m.reg.Counter("peer_reports_total",
			"operational reports uploaded to the monitor, by kind",
			telemetry.Labels{"kind": kind})
		m.reportsByKind[kind] = c
	}
	return c
}

// Metrics exposes the client's telemetry registry.
func (c *Client) Metrics() *telemetry.Registry { return c.metrics.reg }

// Traces returns the client's recent completed download traces, oldest
// first.
func (c *Client) Traces() []*telemetry.Trace { return c.traces.Recent() }

// stunLocalAddr derives the local bind address for the STUN socket from the
// configured server so discovery works off-loopback: a loopback STUN server
// (tests) gets a loopback socket, anything else binds the wildcard address.
func stunLocalAddr(stunAddr string) string {
	host, _, err := net.SplitHostPort(stunAddr)
	if err == nil {
		if ip, perr := netip.ParseAddr(host); perr == nil && ip.IsLoopback() {
			return "127.0.0.1:0"
		}
	}
	return "0.0.0.0:0"
}

// discoverReflexive queries the configured STUN server for the client's
// reflexive transport address — the connectivity detail the control plane's
// DN records for NAT-aware selection (§3.6). Errors are soft: a client
// behind a UDP-blocking firewall still works, it just reports NATBlocked
// semantics to the operator.
func (c *Client) discoverReflexive() {
	if c.cfg.STUNAddr == "" {
		return
	}
	pc, err := net.ListenPacket("udp", stunLocalAddr(c.cfg.STUNAddr))
	if err != nil {
		c.logf("stun socket: %v", err)
		c.metrics.stunFail.Inc()
		return
	}
	defer pc.Close()
	addr, err := nat.Discover(pc, c.cfg.STUNAddr, uint64(time.Now().UnixNano()), 3*time.Second)
	if err != nil {
		c.logf("stun discover: %v", err)
		c.metrics.stunFail.Inc()
		c.reportProblem("nat-fail", err.Error())
		return
	}
	c.metrics.stunOK.Inc()
	c.mu.Lock()
	c.reflexive = addr
	c.mu.Unlock()
	c.logf("reflexive address %v", addr)
}

// ReflexiveAddr returns the STUN-discovered mapped address, or a zero value
// when discovery was disabled or failed.
func (c *Client) ReflexiveAddr() netip.AddrPort {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reflexive
}

// reportProblem uploads an operational report to the monitoring node,
// best-effort and asynchronous ("peers upload information about their
// operation and about problems ... to these nodes", §3.6). Every report is
// also counted in the client's own registry, so fleet problem rates show up
// both at the monitor and on the peer's /v1/telemetry surface.
func (c *Client) reportProblem(kind, detail string) {
	c.metrics.reportKind(kind).Inc()
	url := c.cfg.MonitorURL
	if url == "" {
		return
	}
	body, err := json.Marshal(Report{
		TimeMs: time.Now().UnixMilli(),
		GUID:   c.cfg.GUID.String(),
		Kind:   kind,
		Detail: detail,
	})
	if err != nil {
		return
	}
	go func() {
		client := &http.Client{Timeout: 5 * time.Second}
		resp, err := client.Post(url+"/v1/report", "application/json", bytes.NewReader(body))
		if err != nil {
			return
		}
		resp.Body.Close()
	}()
}

// Report mirrors the monitor's report schema (controlplane.Report); declared
// here so the peer package does not import the control plane.
type Report struct {
	TimeMs int64  `json:"timeMs"`
	GUID   string `json:"guid"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}
