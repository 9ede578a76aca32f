package netsession

import (
	"fmt"
	"math/rand"
	"net/netip"
	"path/filepath"
	"sync"
	"time"

	"netsession/internal/accounting"
	"netsession/internal/cluster"
	"netsession/internal/controlplane"
	"netsession/internal/edge"
	"netsession/internal/faults"
	"netsession/internal/geo"
	"netsession/internal/logpipe"
	"netsession/internal/nat"
	"netsession/internal/telemetry"
)

// ClusterConfig configures an in-process NetSession deployment: the edge
// tier, the control plane, and a synthetic world atlas that gives peers
// geographic identities.
type ClusterConfig struct {
	// NumCNs is how many connection nodes to start per control-plane node
	// (default 1).
	NumCNs int
	// CPNodes is how many control-plane nodes to run (default 1). Every node
	// is a cluster member, and each one after the first joins the nodes
	// before it the way an operator boots netsession-cp nodes. The membership
	// consistent-hashes each geographic region to one node: logins for a
	// region another node owns are redirected, DNs are region-partitioned,
	// and each log batch is booked by the ring owner of its uploader's GUID,
	// so uploader failover stays exactly-once (§3.8).
	CPNodes int
	// CPProbeInterval is how often control-plane nodes probe each other's
	// status endpoints for liveness; zero selects 1s.
	CPProbeInterval time.Duration
	// CPFailAfter is how many consecutive probe failures mark a node dead
	// (triggering region handoff); zero selects 3.
	CPFailAfter int
	// ClientConfig is pushed to peers on login.
	ClientConfig edge.ClientConfig
	// VerifyAccounting enables edge-ledger verification of client usage
	// reports (on by default via DefaultClusterConfig).
	VerifyAccounting bool
	// DNRebuildWindow is how long a failed DN answers queries edge-only
	// while peers RE-ADD their holdings; zero selects the control plane's
	// 2s default.
	DNRebuildWindow time.Duration
	// EdgeFaults injects faults into the edge HTTP tier (latency, errors,
	// severed connections, availability flapping) — the chaos knob that
	// exercises the client's edge failover and retry paths (§3.3). The zero
	// value injects nothing.
	EdgeFaults faults.Config
	// CNFaults wraps every accepted CN control connection with the fault
	// model, exercising the client's reconnect-with-backoff path (§3.8).
	// The zero value injects nothing.
	CNFaults faults.Config
	// LogDir, when set, opens a durable segment store there: every accepted
	// download record is spilled to rotated gzip NDJSON segments that
	// netsession-analyze reads (the month of logs of §4.1), and the node's
	// batch-ack store lives under LogDir/acks. With CPNodes > 1, and for
	// nodes added by AddCPNode, each node uses its own LogDir/<node-id>
	// subdirectory instead.
	LogDir string
}

const (
	// clusterKey is the HMAC key the edge tier and the control plane share
	// for authorization tokens.
	clusterKey = "netsession-demo-key"
	// clusterTailCountries is how many tiny long-tail countries the
	// in-process world adds to the 32 modelled ones (the default atlas
	// adds 207).
	clusterTailCountries = 10
)

// DefaultClusterConfig returns a single-CN deployment with accounting
// verification enabled.
func DefaultClusterConfig() ClusterConfig {
	return ClusterConfig{
		NumCNs:           1,
		ClientConfig:     edge.DefaultClientConfig(),
		VerifyAccounting: true,
	}
}

// cpNode is one control-plane node of the deployment, assembled exactly as
// netsession-cp assembles it. Nodes share the edge tier, the token key, and
// the world atlas — nothing else; cross-node exactly-once rides the ring
// owner of each GUID and the anti-entropy ack sync. gone marks a node killed
// or drained.
type cpNode struct {
	*controlplane.Node
	gone bool
}

// Cluster is a running in-process deployment.
type Cluster struct {
	cfg   ClusterConfig
	atlas *geo.Atlas
	scape *geo.EdgeScape

	minter   *edge.TokenMinter
	verifier accounting.Verifier

	edgeSrv    *edge.Server
	monitor    *controlplane.Monitor
	stun       *nat.Server
	nodes      []*cpNode
	stopScrape func()

	mu  sync.Mutex // guards nodes (AddCPNode appends), per-node flags, rng
	rng *rand.Rand
}

// StartCluster launches the edge server, the monitoring node and the
// control plane (one or more nodes) on loopback addresses.
func StartCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.NumCNs <= 0 {
		cfg.NumCNs = 1
	}
	if cfg.CPNodes <= 0 {
		cfg.CPNodes = 1
	}
	if cfg.ClientConfig.MaxUploadConns == 0 {
		cfg.ClientConfig = edge.DefaultClientConfig()
	}
	atlasCfg := geo.DefaultAtlasConfig()
	atlasCfg.TailCountries = clusterTailCountries
	atlas := geo.GenerateAtlas(atlasCfg)
	scape := geo.NewEdgeScape(atlas)
	minter := edge.NewTokenMinter([]byte(clusterKey))
	ledger := edge.NewLedger()

	es := edge.NewServer(edge.NewCatalog(), minter, ledger, cfg.ClientConfig)
	// Fault middleware must be installed before the listener starts; a nil
	// injector (the zero config) is a no-op.
	es.UseFaults(faults.New(cfg.EdgeFaults, es.Metrics()))
	if err := es.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	mon := controlplane.NewMonitor()
	if err := mon.Start("127.0.0.1:0"); err != nil {
		es.Close()
		return nil, err
	}
	stun, err := nat.NewServer("127.0.0.1:0")
	if err != nil {
		es.Close()
		mon.Close()
		return nil, err
	}
	var verifier accounting.Verifier
	if cfg.VerifyAccounting {
		// The ledger verifier only reads the shared edge ledger, so one
		// instance serves every node's collector.
		verifier = &accounting.LedgerVerifier{Edge: ledger}
	}
	c := &Cluster{
		cfg: cfg, atlas: atlas, scape: scape, edgeSrv: es, monitor: mon, stun: stun,
		minter: minter, verifier: verifier,
		rng: rand.New(rand.NewSource(99)),
	}
	// Each node joins every node started before it (ID and status URL, as
	// with netsession-cp -join id=URL). StartNode returns after its first
	// probe round, by which time the earlier nodes have learned the new one
	// from its probe headers, so every node agrees on the ring — and the
	// regions are partitioned — before any peer connects.
	var seeds []cluster.Node
	for i := 0; i < cfg.CPNodes; i++ {
		if _, err := c.startNode(seeds, false); err != nil {
			c.Close()
			return nil, err
		}
		n := c.nodes[i]
		seeds = append(seeds, cluster.Node{ID: n.ID(), StatusURL: n.StatusURL()})
	}
	// The monitor aggregates the fleet's telemetry: "download and upload
	// performance is constantly monitored" (§3.8). Every node is a scrape
	// target; a dead node shows up in /v1/health instead of vanishing.
	targets := map[string]string{"edge": c.EdgeURL()}
	if cfg.CPNodes == 1 {
		targets["cp"] = c.ControlPlaneURL()
	} else {
		for _, n := range c.nodes {
			targets[n.ID()] = n.StatusURL()
		}
	}
	mon.SetScrapeTargets(targets)
	c.stopScrape = mon.StartScraping(5 * time.Second)
	return c, nil
}

// startNode assembles control-plane node cp-<index> with the given seeds
// and appends it, returning its index. joining marks a node added to a
// running cluster (AddCPNode): it gets its own LogDir subdirectory whatever
// the boot-time CPNodes, and applies its first ring view as a real takeover.
func (c *Cluster) startNode(seeds []cluster.Node, joining bool) (int, error) {
	cfg := c.cfg
	c.mu.Lock()
	nodeID := fmt.Sprintf("cp-%d", len(c.nodes))
	c.mu.Unlock()
	logDir := cfg.LogDir
	if logDir != "" && (cfg.CPNodes > 1 || joining) {
		logDir = filepath.Join(logDir, nodeID)
	}
	// Each node has its own registry (metric series would collide) and its
	// own fault injectors and collector.
	reg := telemetry.NewRegistry()
	n, err := controlplane.StartNode(controlplane.Config{
		NodeID:            nodeID,
		CNs:               cfg.NumCNs,
		LogDir:            logDir,
		Seeds:             seeds,
		ProbeInterval:     cfg.CPProbeInterval,
		FailAfter:         cfg.CPFailAfter,
		JoinExisting:      joining,
		Scape:             c.scape,
		Minter:            c.minter,
		Collector:         accounting.NewCollector(c.verifier),
		ClientConfig:      cfg.ClientConfig,
		DNRebuildWindowMs: cfg.DNRebuildWindow.Milliseconds(),
		Telemetry:         reg,
		ConnWrap:          faults.New(cfg.CNFaults, reg).WrapConn,
	})
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nodes = append(c.nodes, &cpNode{Node: n})
	return len(c.nodes) - 1, nil
}

// AddCPNode starts a new control-plane node that knows nothing about the
// cluster but one live status URL — the config-free join. Seed exchange
// discovers the rest: the new node probes the seed, learns the alive view
// from its status document, is itself learned cluster-wide through its
// probe identity headers, and applies its first ring view as a real
// takeover once discovery has run. Returns the new node's index.
func (c *Cluster) AddCPNode(seedStatusURL string) (int, error) {
	return c.startNode([]cluster.Node{{StatusURL: seedStatusURL}}, true)
}

// DrainCPNode gracefully removes node i: it stops probing, hands its
// regions' directory snapshots to the new owners (no rebuild window on
// takeover), flushes its ack window to survivors, announces the departure,
// and closes. Returns the drain summary.
func (c *Cluster) DrainCPNode(i int) (controlplane.DrainSummary, error) {
	n, ok := c.take(i)
	if !ok {
		return controlplane.DrainSummary{}, fmt.Errorf("netsession: node %d already gone", i)
	}
	return n.Drain()
}

// Close shuts everything down.
func (c *Cluster) Close() {
	if c.stopScrape != nil {
		c.stopScrape()
	}
	c.mu.Lock()
	nodes := append([]*cpNode(nil), c.nodes...)
	c.mu.Unlock()
	for _, n := range nodes {
		n.Close()
	}
	if c.edgeSrv != nil {
		c.edgeSrv.Close()
	}
	if c.monitor != nil {
		c.monitor.Close()
	}
	if c.stun != nil {
		c.stun.Close()
	}
}

// KillCPNode abruptly stops node i — the in-process analogue of kill -9 on a
// control-plane node. Its listeners and every live control session close
// immediately; nothing is flushed, handed off, or drained. The node stays in
// the seed lists so survivors detect the death by probe failure, exactly as
// they would a real crash. In-memory accounting on the killed node is lost
// (the durable segment store under LogDir is not).
func (c *Cluster) KillCPNode(i int) {
	if n, ok := c.take(i); ok {
		n.Kill()
	}
}

// take marks node i gone (killed or drained), reporting false when it
// already was.
func (c *Cluster) take(i int) (*cpNode, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[i]
	if n.gone {
		return nil, false
	}
	n.gone = true
	return n, true
}

// liveNodes returns the nodes not yet killed or drained.
func (c *Cluster) liveNodes() []*cpNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []*cpNode
	for _, n := range c.nodes {
		if !n.gone {
			out = append(out, n)
		}
	}
	return out
}

// EdgeURL returns the edge tier's base URL for PeerConfig.EdgeURL.
func (c *Cluster) EdgeURL() string { return "http://" + c.edgeSrv.Addr() }

// ControlAddrs returns every node's CN addresses for
// PeerConfig.ControlAddrs. Killed nodes' addresses are included — peers are
// expected to rotate past dead CNs, not to be handed a curated list.
func (c *Cluster) ControlAddrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for _, n := range c.nodes {
		for _, cn := range n.CNs() {
			out = append(out, cn.Addr())
		}
	}
	return out
}

// ControlPlaneURL returns the first node's operator HTTP surface
// (GET /v1/status, /metrics, /v1/telemetry).
func (c *Cluster) ControlPlaneURL() string { return c.nodes[0].StatusURL() }

// ControlPlaneURLs returns every node's operator HTTP surface, killed nodes
// included (log uploaders rotate past dead ones).
func (c *Cluster) ControlPlaneURLs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.StatusURL()
	}
	return out
}

// ControlPlane exposes the first control-plane node (metrics, status, DN
// failover).
func (c *Cluster) ControlPlane() *controlplane.ControlPlane { return c.nodes[0].ControlPlane() }

// ControlPlaneNode exposes node i of the control plane.
func (c *Cluster) ControlPlaneNode(i int) *controlplane.ControlPlane {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i].ControlPlane()
}

// NumCPNodes returns how many control-plane nodes were started.
func (c *Cluster) NumCPNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// MonitorURL returns the base URL for PeerConfig.MonitorURL.
func (c *Cluster) MonitorURL() string { return "http://" + c.monitor.Addr() }

// STUNAddr returns the STUN server address for PeerConfig.STUNAddr.
func (c *Cluster) STUNAddr() string { return c.stun.Addr() }

// Monitor exposes the monitoring node (report counters, recent ring).
func (c *Cluster) Monitor() *controlplane.Monitor { return c.monitor }

// Publish makes an object available from the edge tier; its body is the
// deterministic synthetic stream for its content ID.
func (c *Cluster) Publish(obj *Object) error {
	return c.edgeSrv.Catalog().PublishSynthetic(obj)
}

// AllocateIdentity assigns a synthetic public IP in the given country (ISO
// code such as "US" or "DE"), giving a live peer a geographic identity the
// control plane can use for locality-aware selection.
func (c *Cluster) AllocateIdentity(country string) (string, error) {
	cc, ok := c.atlas.Country(geo.CountryCode(country))
	if !ok {
		return "", fmt.Errorf("netsession: unknown country %q", country)
	}
	c.mu.Lock()
	as := c.atlas.SampleAS(c.rng, cc.Code)
	loc := cc.Locations[c.rng.Intn(len(cc.Locations))]
	c.mu.Unlock()
	ip, err := c.scape.AllocateIP(as.Number, loc)
	if err != nil {
		return "", err
	}
	return ip.String(), nil
}

// AccountingLog returns a snapshot of the collected usage records, merged
// across every live node. Killed nodes are excluded: their in-memory window
// died with the process, the same way a real crash loses unflushed state.
func (c *Cluster) AccountingLog() *Log {
	out := &accounting.Log{}
	for _, n := range c.liveNodes() {
		s := n.ControlPlane().Collector().Snapshot()
		out.Downloads = append(out.Downloads, s.Downloads...)
		out.Logins = append(out.Logins, s.Logins...)
		out.Registrations = append(out.Registrations, s.Registrations...)
	}
	return out
}

// LogStore returns the first node's durable log segment store, or nil when
// LogDir was not configured.
func (c *Cluster) LogStore() *logpipe.Store { return c.nodes[0].ControlPlane().LogStore() }

// LogIngest returns the first node's log ingest endpoint; chaos tests use
// it to flip fault injection on the live POST /v1/logs/batch handler.
func (c *Cluster) LogIngest() *logpipe.Ingest { return c.nodes[0].ControlPlane().LogIngest() }

// RejectedReports returns how many client usage reports failed edge
// verification (suspected accounting attacks), summed across live nodes.
func (c *Cluster) RejectedReports() int {
	total := 0
	for _, n := range c.liveNodes() {
		total += n.ControlPlane().Collector().Rejected()
	}
	return total
}

// Lookup resolves a synthetic identity IP (from AllocateIdentity).
func (c *Cluster) Lookup(ipStr string) (country string, asn uint32, ok bool) {
	ip, err := netip.ParseAddr(ipStr)
	if err != nil {
		return "", 0, false
	}
	rec, ok := c.scape.Lookup(ip)
	if !ok {
		return "", 0, false
	}
	return string(rec.Country), uint32(rec.ASN), true
}
