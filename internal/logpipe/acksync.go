package logpipe

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"netsession/internal/telemetry"
)

// AcksPath is the anti-entropy endpoint on the control plane's operator
// HTTP surface: GET ?since=N pulls missing keys, POST bulk-merges them.
const AcksPath = "/v1/logs/acks"

// ackSyncTimeout bounds each anti-entropy pull. Pulls run on the membership's
// probe goroutine, so a dead peer must not hold up the next probe round.
const ackSyncTimeout = 500 * time.Millisecond

// AckSyncerConfig configures an anti-entropy syncer.
type AckSyncerConfig struct {
	// Store is the local ack store pulled keys merge into.
	Store *AckStore
	// Telemetry registers logpipe_ack_sync_pulls_total eagerly; nil skips.
	Telemetry *telemetry.Registry
	// Logf receives debug logging; nil discards.
	Logf func(format string, args ...any)
}

// AckSyncer reconciles per-node ack stores by anti-entropy. Digests ride
// the existing membership probe channel for free: every status document
// advertises the node's ack sequence, and when a peer's sequence moves past
// what we last pulled, we fetch the keys we are missing. Ingest never waits
// on it: every batch is booked by the ring owner of its GUID, so the pulled
// keys matter only to the node that owns a GUID next — after a crash, a
// join or a drain. All methods are safe for concurrent use.
type AckSyncer struct {
	cfg    AckSyncerConfig
	client *http.Client

	mu     sync.Mutex
	pulled map[string]uint64 // nodeID -> last seq pulled through

	pulls *telemetry.Counter
}

// NewAckSyncer creates a syncer over the given local store.
func NewAckSyncer(cfg AckSyncerConfig) *AckSyncer {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &AckSyncer{
		cfg:    cfg,
		client: &http.Client{Timeout: ackSyncTimeout},
		pulled: make(map[string]uint64),
	}
	if reg := cfg.Telemetry; reg != nil {
		s.pulls = reg.Counter("logpipe_ack_sync_pulls_total",
			"anti-entropy pulls of missing batch acks from peer nodes", nil)
	}
	return s
}

// ObserveAckSeq reports a peer's advertised ack sequence (from a membership
// probe). If the peer has acks we have not pulled, fetch and merge them. A
// sequence below the one we pulled through is a restarted store that lost
// its window; it is pulled from the start.
func (s *AckSyncer) ObserveAckSeq(nodeID, statusURL string, seq uint64) {
	if nodeID == "" || statusURL == "" {
		return
	}
	s.mu.Lock()
	last := s.pulled[nodeID]
	s.mu.Unlock()
	if seq == last {
		return
	}
	if seq < last {
		last = 0
	}
	resp, err := s.client.Get(statusURL + AcksPath + "?since=" + strconv.FormatUint(last, 10))
	if err != nil {
		s.cfg.Logf("logpipe: ack pull from %s failed: %v", nodeID, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.cfg.Logf("logpipe: ack pull from %s: %s", nodeID, resp.Status)
		return
	}
	var sr ackSinceResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&sr); err != nil {
		s.cfg.Logf("logpipe: ack pull from %s: bad body: %v", nodeID, err)
		return
	}
	if s.cfg.Store != nil {
		s.cfg.Store.MarkAll(sr.Keys)
	}
	s.mu.Lock()
	s.pulled[nodeID] = sr.Seq
	s.mu.Unlock()
	if s.pulls != nil {
		s.pulls.Inc()
	}
	s.cfg.Logf("logpipe: pulled %d acks from %s (through seq %d)", len(sr.Keys), nodeID, sr.Seq)
}
