// Package peer implements the NetSession Interface (§3.4): the background
// client installed on user machines. It maintains a persistent control
// connection to the control plane, downloads content in parallel from edge
// servers (HTTP) and other peers (the swarming protocol), verifies every
// piece against the edge-issued manifest, serves uploads subject to the
// global connection limit and per-object caps, reports usage statistics for
// accounting, and lets the user disable uploads at any time without losing
// download performance.
package peer

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"netsession/internal/content"
	"netsession/internal/edge"
	"netsession/internal/id"
	"netsession/internal/logpipe"
	"netsession/internal/protocol"
	"netsession/internal/telemetry"
)

// Config configures a NetSession Interface instance.
type Config struct {
	// GUID is the installation identity; zero means choose one at random,
	// as a fresh installation would.
	GUID id.GUID
	// DeclaredIP is the peer's public IP in the experiment's synthetic
	// address plan (see protocol.Login.DeclaredIP).
	DeclaredIP string
	// NAT is the peer's NAT class as discovered via STUN.
	NAT protocol.NATClass
	// ControlAddrs are CN addresses, tried in order on (re)connect.
	ControlAddrs []string
	// EdgeURL is the edge tier's base URL; EdgeURLs adds more servers for
	// failover. At least one of the two must be set.
	EdgeURL  string
	EdgeURLs []string
	// STUNAddr, when set, is a STUN server the client queries at startup
	// to discover its reflexive (NAT-mapped) address (§3.6).
	STUNAddr string
	// MonitorURL, when set, receives operational reports (crash reports,
	// corrupt-piece observations) over HTTP (§3.6).
	MonitorURL string
	// StateDir, when set, persists the installation state (GUID, upload
	// preference, secondary-GUID window) across restarts, like the real
	// installed client. It overrides Config.GUID and Config.UploadsEnabled
	// with the stored values. It also selects the crash-safe disk-backed
	// piece store (StateDir/content) instead of an in-memory one, and
	// persists per-download checkpoints (StateDir/downloads) so transfers cut
	// short by a crash resume from the verified pieces on disk instead of
	// refetching them.
	StateDir string
	// UploadsEnabled is the initial preference; content providers bundle
	// the binary with this on or off (§5.1).
	UploadsEnabled bool
	// StallWindow is how long a download tolerates zero peer piece progress
	// before declaring the swarm dead and degrading to edge-only (§3.3
	// fallback). Zero selects 15s.
	StallWindow time.Duration
	// CorruptPieceLimit is how many corrupt pieces (across all peers) a
	// download tolerates before degrading to edge-only. Zero selects 25.
	CorruptPieceLimit int
	// LogUploadURL, when set, moves usage reporting from the control
	// connection to the batched log pipeline (§3.4 "uploads logs to the
	// infrastructure"); it picks the transport, not the schema, which is one
	// logpipe.Entry either way. Per-download entries go to a durable spool
	// under StateDir/logspool and an uploader ships sealed batches to this
	// control plane operator URL (POST /v1/logs/batch). Comma-separate
	// several URLs to let the uploader fail over across control-plane nodes;
	// batch IDs keep cross-node retries exactly-once. Requires StateDir.
	LogUploadURL string
	// LogUploadInterval paces the background uploader; zero selects 2s,
	// negative disables the loop (drain explicitly with FlushLogs).
	LogUploadInterval time.Duration
	// Logf receives debug logging; nil discards.
	Logf func(format string, args ...any)
}

// softwareVersion is the client version a fresh process reports on login.
const softwareVersion = "ns-3.1"

// Client is one running NetSession Interface.
type Client struct {
	cfg Config
	// requery paces peer re-queries of unsatisfied downloads:
	// requeryInterval, shortened only by tests.
	requery time.Duration
	store   content.Store
	edge    *edgePool
	metrics *clientMetrics
	traces  *telemetry.TraceLog

	secMu       sync.Mutex
	secondaries id.History

	prefs *Preferences

	control *controlConn
	uploads *uploadManager

	// spool/logUploader are the client-log pipeline (nil when LogUploadURL
	// is unset; the client then sends each entry in-band as a UsageLog).
	spool       *logpipe.Spool
	logUploader *logpipe.Uploader

	// blacklist holds peers whose swarm dials failed recently, with the
	// time each entry expires; entries decay so churned peers that come
	// back get retried.
	blMu      sync.Mutex
	blacklist map[id.GUID]time.Time

	// ckptDir is where download checkpoints persist; empty disables them.
	ckptDir string
	// resumeMu serializes checkpoint resumption so the startup resume loop
	// and an explicit ResumeDownloads call cannot double-count a transfer.
	resumeMu sync.Mutex
	resumed  map[content.ObjectID]bool

	swarmLn net.Listener

	mu        sync.Mutex
	manifests map[content.ObjectID]*content.Manifest
	downloads map[content.ObjectID]*Download
	cachedAt  map[content.ObjectID]time.Time
	closed    bool
	// version is the installed client version; a centrally triggered
	// self-upgrade changes it (§3.8).
	version   string
	clientCfg edge.ClientConfig
	reflexive netip.AddrPort
	evictStop chan struct{}
}

// New creates and starts a client: it opens the swarm listener, connects to
// the control plane, and logs in. Close releases everything.
func New(cfg Config) (*Client, error) {
	var state *State
	if cfg.StateDir != "" {
		var err error
		state, err = LoadOrCreateState(cfg.StateDir, cfg.UploadsEnabled)
		if err != nil {
			return nil, err
		}
		cfg.GUID = state.GUID
		cfg.UploadsEnabled = state.UploadsEnabled
	}
	if cfg.GUID.IsZero() {
		cfg.GUID = id.NewGUID()
	}
	metrics := newClientMetrics()
	var store content.Store
	if cfg.StateDir == "" {
		store = content.NewMemStore()
	} else {
		// Crash-safe: verified pieces survive a process kill and are
		// re-verified (with quarantine) on the way back up.
		ds, err := content.OpenDiskStore(filepath.Join(cfg.StateDir, "content"),
			content.DiskStoreOptions{Telemetry: metrics.reg})
		if err != nil {
			return nil, err
		}
		store = ds
	}
	if cfg.StallWindow <= 0 {
		cfg.StallWindow = 15 * time.Second
	}
	if cfg.CorruptPieceLimit <= 0 {
		cfg.CorruptPieceLimit = 25
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if len(cfg.ControlAddrs) == 0 {
		return nil, fmt.Errorf("peer: no control plane addresses configured")
	}
	pool, err := newEdgePool(append([]string{cfg.EdgeURL}, cfg.EdgeURLs...), metrics)
	if err != nil {
		return nil, err
	}
	c := &Client{
		cfg:       cfg,
		version:   softwareVersion,
		requery:   requeryInterval,
		store:     store,
		edge:      pool,
		metrics:   metrics,
		traces:    telemetry.NewTraceLog(0),
		prefs:     NewPreferences(cfg.UploadsEnabled),
		manifests: make(map[content.ObjectID]*content.Manifest),
		downloads: make(map[content.ObjectID]*Download),
		cachedAt:  make(map[content.ObjectID]time.Time),
		blacklist: make(map[id.GUID]time.Time),
		resumed:   make(map[content.ObjectID]bool),
		clientCfg: edge.DefaultClientConfig(),
		evictStop: make(chan struct{}),
	}
	if cfg.StateDir != "" {
		c.ckptDir = filepath.Join(cfg.StateDir, checkpointDirName)
		if err := os.MkdirAll(c.ckptDir, 0o755); err != nil {
			return nil, fmt.Errorf("peer: checkpoint dir: %w", err)
		}
	}
	if cfg.LogUploadURL != "" {
		if cfg.StateDir == "" {
			return nil, fmt.Errorf("peer: LogUploadURL requires StateDir (the log spool is durable)")
		}
		sp, err := logpipe.OpenSpool(logpipe.SpoolConfig{
			Dir:       filepath.Join(cfg.StateDir, logSpoolDirName),
			Telemetry: metrics.reg,
		})
		if err != nil {
			return nil, fmt.Errorf("peer: log spool: %w", err)
		}
		c.spool = sp
	}
	// A fresh secondary GUID per start (§6.2); with persistent state the
	// previous window slides forward and is saved, so consecutive starts
	// report overlapping sequences — and a copied state directory forks
	// the chain, which is what the clone analysis of Figure 12 detects.
	c.secMu.Lock()
	if state != nil {
		c.secondaries = state.Secondaries
	}
	c.secondaries.Push(id.NewSecondary())
	window := c.secondaries
	c.secMu.Unlock()
	if state != nil {
		state.Secondaries = window
		if err := state.Save(cfg.StateDir); err != nil {
			return nil, err
		}
		// Persist preference flips too.
	}

	if state != nil {
		dir := cfg.StateDir
		c.prefs.Observe(func(enabled bool) {
			state.UploadsEnabled = enabled
			state.Save(dir)
		})
	}
	c.uploads = newUploadManager(c)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("peer: swarm listen: %w", err)
	}
	c.swarmLn = ln
	go c.acceptSwarmLoop()
	c.discoverReflexive()

	c.control = newControlConn(c)
	if err := c.control.start(); err != nil {
		ln.Close()
		return nil, err
	}
	go c.evictLoop()
	if c.ckptDir != "" {
		go c.resumeLoop()
	}
	if c.spool != nil {
		up, err := logpipe.StartUploader(logpipe.UploaderConfig{
			Spool:     c.spool,
			URLs:      splitList(cfg.LogUploadURL),
			GUID:      cfg.GUID.String(),
			Interval:  cfg.LogUploadInterval,
			Telemetry: metrics.reg,
			Logf:      c.logf,
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.logUploader = up
	}
	return c, nil
}

// logSpoolDirName is where the durable log spool lives under StateDir.
const logSpoolDirName = "logspool"

// splitList parses a comma-separated list, trimming whitespace and dropping
// empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// FlushLogs seals pending usage records and drains the spool to the control
// plane; a no-op without the log pipeline. Tests and orderly shutdowns use
// it — a killed process instead relies on the spool's durability and resumes
// uploading after restart.
func (c *Client) FlushLogs(ctx context.Context) error {
	if c.logUploader == nil {
		return nil
	}
	return c.logUploader.Drain(ctx)
}

// LogsPending reports how much work the durable spool still holds: sealed
// segments awaiting acknowledgement plus records not yet sealed. Zero means
// every report has been ingested by the control plane.
func (c *Client) LogsPending() int {
	if c.spool == nil {
		return 0
	}
	sealed, open := c.spool.Pending()
	return sealed + open
}

// markCached records when an object completed, for cache-TTL eviction.
func (c *Client) markCached(oid content.ObjectID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cachedAt[oid] = time.Now()
}

// evictLoop drops cached objects past the provider-configured TTL and
// withdraws their registrations: peers keep a completed download "in a
// local cache for a certain amount of time" (§5.2), no longer.
func (c *Client) evictLoop() {
	t := time.NewTicker(30 * time.Second)
	defer t.Stop()
	for {
		select {
		case <-c.evictStop:
			return
		case <-t.C:
		}
		c.mu.Lock()
		ttl := time.Duration(c.clientCfg.CacheTTLSec) * time.Second
		var expired []content.ObjectID
		for oid, at := range c.cachedAt {
			if ttl > 0 && time.Since(at) > ttl {
				expired = append(expired, oid)
				delete(c.cachedAt, oid)
			}
		}
		c.mu.Unlock()
		for _, oid := range expired {
			if c.activeDownload(oid) != nil {
				continue // being re-downloaded; keep
			}
			c.store.Drop(oid)
			c.control.send(&protocol.Unregister{Object: oid})
			c.logf("evicted cached object %v", oid)
		}
	}
}

// GUID returns the installation GUID.
func (c *Client) GUID() id.GUID { return c.cfg.GUID }

// SoftwareVersion returns the currently installed client version (it
// changes after a centrally triggered self-upgrade, §3.8).
func (c *Client) SoftwareVersion() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// SwarmAddr returns the peer's swarm listener address.
func (c *Client) SwarmAddr() string { return c.swarmLn.Addr().String() }

// Preferences returns the user-facing preference handle (the control-panel
// equivalent; users "can turn uploading on or off", §3.9).
func (c *Client) Preferences() *Preferences { return c.prefs }

// Store exposes the local piece store.
func (c *Client) Store() content.Store { return c.store }

// Close stops the client.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	dls := c.downloadsLocked()
	c.mu.Unlock()
	close(c.evictStop)
	for _, d := range dls {
		d.Abort()
	}
	if c.logUploader != nil {
		c.logUploader.Stop()
	}
	c.control.stop()
	c.swarmLn.Close()
	c.uploads.closeAll()
}

// Kill stops the client the way a crash would: no final statistics report,
// no goodbye to the control plane, no checkpoint cleanup — downloads are cut
// off mid-flight with their checkpoints left on disk. The in-process chaos
// tests use it to simulate a SIGKILL without leaving goroutines behind.
func (c *Client) Kill() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	dls := c.downloadsLocked()
	c.mu.Unlock()
	close(c.evictStop)
	for _, d := range dls {
		d.kill()
	}
	// The uploader stops without flushing: everything unacknowledged stays
	// in the durable spool and is resent after restart, where the CP's dedup
	// window keeps the accounting exactly-once.
	if c.logUploader != nil {
		c.logUploader.Stop()
	}
	c.control.stop()
	c.swarmLn.Close()
	c.uploads.closeAll()
}

func (c *Client) logf(format string, args ...any) {
	c.cfg.Logf("peer %s: %s", c.cfg.GUID.Short(), fmt.Sprintf(format, args...))
}

// manifest returns (fetching and caching if needed) the manifest of an
// object.
func (c *Client) manifest(oid content.ObjectID) (*content.Manifest, error) {
	c.mu.Lock()
	if m := c.manifests[oid]; m != nil {
		c.mu.Unlock()
		return m, nil
	}
	c.mu.Unlock()
	m, err := c.edge.FetchManifest(oid)
	if err != nil {
		// A disk-backed store that recovered this object already holds its
		// verified manifest; resuming must not depend on the edge being
		// reachable for metadata it already has.
		type manifester interface {
			Manifest(content.ObjectID) *content.Manifest
		}
		if ds, ok := c.store.(manifester); ok {
			if m := ds.Manifest(oid); m != nil {
				c.mu.Lock()
				c.manifests[oid] = m
				c.mu.Unlock()
				return m, nil
			}
		}
		return nil, err
	}
	c.mu.Lock()
	c.manifests[oid] = m
	c.mu.Unlock()
	return m, nil
}

func (c *Client) cachedManifest(oid content.ObjectID) *content.Manifest {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.manifests[oid]
}

// blacklistFor is how long a peer stays blacklisted after a failed swarm
// dial before it may be retried.
const blacklistFor = 30 * time.Second

// blacklistPeer quarantines a peer after a failed swarm dial; the entry
// decays after blacklistFor so peers that come back from churn get retried.
func (c *Client) blacklistPeer(g id.GUID) {
	c.blMu.Lock()
	c.blacklist[g] = time.Now().Add(blacklistFor)
	c.blMu.Unlock()
	c.metrics.swarmBlacklist.Inc()
}

// peerBlacklisted reports whether a peer is currently quarantined, dropping
// expired entries as it sees them.
func (c *Client) peerBlacklisted(g id.GUID) bool {
	c.blMu.Lock()
	defer c.blMu.Unlock()
	until, ok := c.blacklist[g]
	if !ok {
		return false
	}
	if time.Now().After(until) {
		delete(c.blacklist, g)
		return false
	}
	return true
}

// downloadsLocked snapshots the running downloads; the caller holds c.mu.
func (c *Client) downloadsLocked() []*Download {
	dls := make([]*Download, 0, len(c.downloads))
	for _, d := range c.downloads {
		dls = append(dls, d)
	}
	return dls
}

// activeDownload returns the running download of an object, if any.
func (c *Client) activeDownload(oid content.ObjectID) *Download {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.downloads[oid]
}

// registerStoredObjects (re)announces every locally stored object to the
// control plane; used after login and in response to RE-ADD.
func (c *Client) registerStoredObjects() {
	if !c.prefs.UploadsEnabled() {
		return
	}
	for _, oid := range c.store.Objects() {
		bf := c.store.Have(oid)
		if bf == nil || bf.Count() == 0 {
			continue
		}
		c.control.send(&protocol.Register{
			Object:    oid,
			NumPieces: uint32(bf.Len()),
			HaveCount: uint32(bf.Count()),
			Complete:  bf.Complete(),
		})
	}
}

// reAddEntries builds the RE-ADD reply listing stored objects.
func (c *Client) reAddEntries() []protocol.ReAddEntry {
	if !c.prefs.UploadsEnabled() {
		return nil
	}
	var out []protocol.ReAddEntry
	for _, oid := range c.store.Objects() {
		bf := c.store.Have(oid)
		if bf == nil || bf.Count() == 0 {
			continue
		}
		out = append(out, protocol.ReAddEntry{
			Object:    oid,
			NumPieces: uint32(bf.Len()),
			HaveCount: uint32(bf.Count()),
			Complete:  bf.Complete(),
		})
	}
	return out
}

// WaitControlConnected blocks until the control connection is up or the
// timeout elapses; tests and examples use it to sequence setups.
func (c *Client) WaitControlConnected(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.control.connected() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return c.control.connected()
}
