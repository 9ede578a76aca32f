package logpipe

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"netsession/internal/telemetry"
)

// Anti-entropy endpoints on the control plane's operator HTTP surface.
const (
	// AcksPath serves GET ?since=N (pull missing keys) and POST (bulk merge).
	AcksPath = "/v1/logs/acks"
	// AcksSeenPath serves GET ?key=K — the synchronous remote dedup check.
	AcksSeenPath = AcksPath + "/seen"
)

// ackSyncTimeout bounds each anti-entropy HTTP request. The SeenAnywhere
// check sits on the ingest request path, so it must fail fast — a dead peer
// answers "not seen" by timeout, and the batch ingests normally.
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
// what we last pulled, we fetch the keys we are missing. For the window
// between an ack landing on one node and anti-entropy copying it, the
// ingest path closes the gap with a synchronous SeenAnywhere check — so a
// batch acked by node A and replayed to node B milliseconds later still
// counts exactly once. All methods are safe for concurrent use.
type AckSyncer struct {
	cfg    AckSyncerConfig
	client *http.Client

	mu     sync.Mutex
	peers  map[string]string // nodeID -> statusURL
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
		peers:  make(map[string]string),
		pulled: make(map[string]uint64),
	}
	if reg := cfg.Telemetry; reg != nil {
		s.pulls = reg.Counter("logpipe_ack_sync_pulls_total",
			"anti-entropy pulls of missing batch acks from peer nodes", nil)
	}
	return s
}

// SetPeers replaces the peer set (nodeID -> status URL). Wire it to the
// membership's OnChange so the syncer tracks the alive view.
func (s *AckSyncer) SetPeers(peers map[string]string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peers = make(map[string]string, len(peers))
	for id, url := range peers {
		s.peers[id] = url
	}
	for id := range s.pulled {
		if _, ok := s.peers[id]; !ok {
			delete(s.pulled, id)
		}
	}
}

// ObserveAckSeq reports a peer's advertised ack sequence (from a membership
// probe). If the peer has acks we have not pulled, fetch and merge them.
func (s *AckSyncer) ObserveAckSeq(nodeID, statusURL string, seq uint64) {
	if nodeID == "" || statusURL == "" {
		return
	}
	s.mu.Lock()
	last := s.pulled[nodeID]
	s.mu.Unlock()
	if seq <= last {
		return
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
	if sr.Seq > s.pulled[nodeID] {
		s.pulled[nodeID] = sr.Seq
	}
	s.mu.Unlock()
	if s.pulls != nil {
		s.pulls.Inc()
	}
	s.cfg.Logf("logpipe: pulled %d acks from %s (through seq %d)", len(sr.Keys), nodeID, sr.Seq)
}

// SeenAnywhere asks every known peer whether it has acked the batch key.
// Errors and timeouts read as "not seen" — a dead peer must not block
// ingest, and a false negative only risks the duplicate the anti-entropy
// window already bounds.
func (s *AckSyncer) SeenAnywhere(key string) bool {
	s.mu.Lock()
	urls := make([]string, 0, len(s.peers))
	for _, u := range s.peers {
		urls = append(urls, u)
	}
	s.mu.Unlock()
	for _, u := range urls {
		resp, err := s.client.Get(u + AcksSeenPath + "?key=" + url.QueryEscape(key))
		if err != nil {
			continue
		}
		var sr ackSeenResponse
		derr := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&sr)
		resp.Body.Close()
		if derr == nil && resp.StatusCode == http.StatusOK && sr.Seen {
			return true
		}
	}
	return false
}
