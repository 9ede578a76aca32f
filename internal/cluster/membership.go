package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"netsession/internal/telemetry"
)

// Node identifies one control-plane member.
type Node struct {
	// ID is the stable node identity the ring hashes; it must be unique
	// across the cluster and survive restarts. A seed may leave it empty —
	// an address-only seed — and the membership learns the identity from the
	// node's own status document on the first successful probe.
	ID string
	// StatusURL is the node's operator HTTP base URL (the surface serving
	// GET /v1/status and /metrics); liveness probes hit it.
	StatusURL string
	// CNAddrs are the node's connection-node addresses — what peers dial and
	// what login redirects point at. When a seed omits them, the membership
	// learns them from the node's own status document on the first
	// successful probe.
	CNAddrs []string
}

// WireMember is the JSON shape of one member inside a status document's
// alive view — the seed-exchange payload. Every probed node lists whom it
// believes alive, so a new node given any one live address transitively
// discovers the whole cluster.
type WireMember struct {
	ID        string   `json:"id"`
	StatusURL string   `json:"statusUrl"`
	CNAddrs   []string `json:"cnAddrs,omitempty"`
}

// Probe identity headers: every probe announces who is asking, where its
// own status surface lives and where its CNs listen (comma-separated), so
// the probed node learns new members — redirect targets included — from the
// request itself (a joining node becomes known cluster-wide within one
// probe round even though probes are plain GETs).
const (
	HeaderProbeID  = "X-Netsession-Node-Id"
	HeaderProbeURL = "X-Netsession-Status-Url"
	HeaderProbeCNs = "X-Netsession-Cn-Addrs"
)

// View is one consistent observation of the cluster: the alive members and
// the ring routing keys across them. Views are immutable; take a new one
// after every change notification.
type View struct {
	// Nodes are the alive members, sorted by ID.
	Nodes []Node

	ring *Ring
}

// Owner returns the alive node owning a routing key (a region name). The
// bool is false only when the view is empty.
func (v View) Owner(key string) (Node, bool) {
	if v.ring == nil {
		return Node{}, false
	}
	id, ok := v.ring.Owner(key)
	if !ok {
		return Node{}, false
	}
	for _, n := range v.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return Node{}, false
}

// Config configures a membership instance.
type Config struct {
	// Self is this node. It is always considered alive and is never probed.
	Self Node
	// Seeds are the other members from the static join list. Seeds with an
	// ID start out optimistically alive, so a cluster booting in any order
	// converges to the full ring without spurious handoffs; a seed that is
	// actually down is demoted after FailAfter failed probes. Seeds with an
	// empty ID are address-only: they are probed until they answer, at which
	// point the status document's nodeId identifies them — this is how a
	// node joins a cluster knowing nothing but one live address.
	Seeds []Node
	// ProbeInterval is how often every seed is probed, and the timeout of
	// one probe request; zero selects 1s.
	ProbeInterval time.Duration
	// FailAfter is how many consecutive probe failures mark a node dead;
	// zero selects 3. One lost packet must not trigger a region handoff —
	// clearing a directory on a false positive costs a rebuild window.
	FailAfter int
	// JoinMode suppresses the initial OnChange: a node joining an existing
	// cluster through an address-only seed must not publish a lonely
	// self-only view (it would claim every region); the first view fires
	// once discovery has found at least one other member.
	JoinMode bool
	// OnChange is invoked with the new view whenever the alive set changes
	// (and once at Start with the initial view, unless JoinMode). It runs on
	// the probe goroutine — or, for changes triggered by an incoming probe's
	// identity headers, on that HTTP handler's goroutine; implementations
	// must not block for long.
	OnChange func(View)
	// OnAckSeq is invoked after every successful probe with the probed
	// node's advertised acknowledgement sequence (statusDoc.ackSeq). The log
	// pipeline's anti-entropy syncer hangs off this hook: a peer whose ack
	// log advanced is pulled from. Runs on the probe goroutine, outside the
	// membership lock.
	OnAckSeq func(n Node, ackSeq uint64)
	// Telemetry registers the membership counters eagerly; nil skips them.
	Telemetry *telemetry.Registry
	// Logf receives debug logging; nil discards.
	Logf func(format string, args ...any)
}

// Membership tracks which members of the cluster are alive by probing their
// status endpoints, and publishes consistent-hash views over the alive set.
// The member set itself is dynamic: every status document carries the
// answering node's alive view and every probe announces its sender, so a
// seed list of one live address is enough to discover — and be discovered
// by — the whole cluster. Liveness stays per-observer — exactly the
// environment the soft-state control plane is designed to tolerate (§3.8).
type Membership struct {
	cfg    Config
	client *http.Client

	mu      sync.Mutex
	members map[string]*memberState
	// pending are address-only seeds still waiting to be identified by
	// their first successful probe. They never expire: a joining node's
	// only seed must be retried until the cluster answers.
	pending []Node
	// left tombstones nodes that departed via planned drain. Gossip cannot
	// resurrect a left node — only a direct probe from the node itself (a
	// deliberate rejoin) clears the tombstone. Without this, two survivors
	// processing a leave at different times would re-learn the drained node
	// from each other's status documents and flap the ring.
	left    map[string]bool
	started bool
	stopped bool

	learned  *telemetry.Counter
	mismatch *telemetry.Counter

	stopCh chan struct{}
	wg     sync.WaitGroup
}

type memberState struct {
	node  Node
	alive bool
	fails int
}

// New creates a membership instance; call Start to begin probing.
func New(cfg Config) *Membership {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	m := &Membership{
		cfg:     cfg,
		client:  &http.Client{Timeout: cfg.ProbeInterval},
		members: make(map[string]*memberState),
		left:    make(map[string]bool),
		stopCh:  make(chan struct{}),
	}
	if reg := cfg.Telemetry; reg != nil {
		m.learned = reg.Counter("cluster_members_learned_total",
			"cluster members discovered via seed exchange (gossiped views, probe identity headers, identified seeds)", nil)
		m.mismatch = reg.Counter("cluster_probe_identity_mismatch_total",
			"probes whose status document declared a different nodeId than configured for that member", nil)
	}
	m.members[cfg.Self.ID] = &memberState{node: cfg.Self, alive: true}
	for _, s := range cfg.Seeds {
		if s.ID == "" {
			if s.StatusURL != "" {
				m.pending = append(m.pending, s)
			}
			continue
		}
		if s.ID == cfg.Self.ID {
			continue
		}
		m.members[s.ID] = &memberState{node: s, alive: true}
	}
	return m
}

// Start fires the initial OnChange (with every identified seed
// optimistically alive; suppressed in JoinMode), runs one probe round, and
// begins the probe loop. The first round runs before Start returns: every
// seed that is up has learned this node from the probe's identity headers
// by then, rather than one ProbeInterval later.
func (m *Membership) Start() {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	if m.cfg.OnChange != nil && !m.cfg.JoinMode {
		m.cfg.OnChange(m.View())
	}
	m.probeRound()
	m.wg.Add(1)
	go m.loop()
}

// Stop halts probing and releases the probe client's kept-alive
// connections. It does not notify OnChange — a stopping node is leaving,
// not observing.
func (m *Membership) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	m.mu.Unlock()
	close(m.stopCh)
	m.wg.Wait()
	m.client.CloseIdleConnections()
}

// View returns the current alive view.
func (m *Membership) View() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewLocked()
}

func (m *Membership) viewLocked() View {
	v := View{}
	ids := make([]string, 0, len(m.members))
	for _, ms := range m.members {
		if ms.alive {
			v.Nodes = append(v.Nodes, ms.node)
			ids = append(ids, ms.node.ID)
		}
	}
	sort.Slice(v.Nodes, func(a, b int) bool { return v.Nodes[a].ID < v.Nodes[b].ID })
	v.ring = NewRing(ids)
	return v
}

// AliveCount returns how many members (including self) are currently alive.
func (m *Membership) AliveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, ms := range m.members {
		if ms.alive {
			n++
		}
	}
	return n
}

// Members returns the alive members including self — the seed-exchange
// payload a status document advertises.
func (m *Membership) Members() []Node {
	return m.View().Nodes
}

// Others returns the alive members excluding self — the survivors a planned
// drain hands its regions and ack window to.
func (m *Membership) Others() []Node {
	all := m.View().Nodes
	out := make([]Node, 0, len(all))
	for _, n := range all {
		if n.ID != m.cfg.Self.ID {
			out = append(out, n)
		}
	}
	return out
}

// ObserveProber records the identity a probe request announced. Unknown
// nodes join the member set optimistically alive — this is the push half of
// seed exchange: the cluster learns a joining node from the joiner's own
// probes. A direct probe also clears a leave tombstone (the node itself
// asking back in is a deliberate rejoin).
func (m *Membership) ObserveProber(n Node) {
	if n.ID == "" || n.ID == m.cfg.Self.ID || n.StatusURL == "" {
		return
	}
	m.mu.Lock()
	delete(m.left, n.ID)
	changed := m.addMemberLocked(n)
	m.mu.Unlock()
	if changed && m.cfg.OnChange != nil {
		m.cfg.OnChange(m.View())
	}
}

// MarkLeft removes a node that announced a planned departure. Unlike probe
// death, the node is deleted (not demoted) and tombstoned so gossip cannot
// resurrect it; the change notifies immediately — a drain must not wait out
// FailAfter probe rounds.
func (m *Membership) MarkLeft(id string) {
	if id == "" || id == m.cfg.Self.ID {
		return
	}
	m.mu.Lock()
	ms, present := m.members[id]
	delete(m.members, id)
	m.left[id] = true
	m.mu.Unlock()
	if present {
		m.cfg.Logf("cluster: node %s left (planned drain)", id)
	}
	if present && ms.alive && m.cfg.OnChange != nil {
		m.cfg.OnChange(m.View())
	}
}

// addMemberLocked merges one learned node into the member set; the caller
// holds m.mu. Returns whether the alive view changed.
func (m *Membership) addMemberLocked(n Node) bool {
	if n.ID == "" || n.ID == m.cfg.Self.ID || m.left[n.ID] {
		return false
	}
	if ms := m.members[n.ID]; ms != nil {
		// Known member: enrich addresses we lack, never flip liveness —
		// gossip is hearsay, our own probes decide who is alive.
		changed := false
		if ms.node.StatusURL == "" && n.StatusURL != "" {
			ms.node.StatusURL = n.StatusURL
			changed = true
		}
		if len(ms.node.CNAddrs) == 0 && len(n.CNAddrs) > 0 {
			ms.node.CNAddrs = append([]string(nil), n.CNAddrs...)
			changed = ms.alive
		}
		return changed
	}
	m.members[n.ID] = &memberState{node: n, alive: true}
	if m.learned != nil {
		m.learned.Inc()
	}
	m.cfg.Logf("cluster: learned member %s (%s)", n.ID, n.StatusURL)
	return true
}

func (m *Membership) loop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-m.stopCh:
			return
		case <-t.C:
		}
		m.probeRound()
	}
}

// probeRound probes every member once and publishes the outcome: a changed
// view to OnChange, every advertised ack sequence to OnAckSeq.
func (m *Membership) probeRound() {
	changed, acks := m.probeAll()
	if changed && m.cfg.OnChange != nil {
		m.cfg.OnChange(m.View())
	}
	if m.cfg.OnAckSeq != nil {
		for _, a := range acks {
			m.cfg.OnAckSeq(a.node, a.seq)
		}
	}
}

// statusDoc is the slice of the control plane's /v1/status document the
// probe reads: the node's self-declared identity, its CN addresses, its
// alive view (seed exchange), and its ack-log sequence (anti-entropy).
type statusDoc struct {
	NodeID  string       `json:"nodeId"`
	CNAddrs []string     `json:"cnAddrs"`
	Members []WireMember `json:"members"`
	AckSeq  uint64       `json:"ackSeq"`
}

type ackObservation struct {
	node Node
	seq  uint64
}

// probeAll probes every member but self (and every unidentified seed) in
// parallel and reports whether the view changed — a liveness flip, a
// CN-address discovery, a newly identified seed, or a gossiped member.
func (m *Membership) probeAll() (changed bool, acks []ackObservation) {
	m.mu.Lock()
	targets := make([]Node, 0, len(m.members)+len(m.pending))
	for _, ms := range m.members {
		if ms.node.ID != m.cfg.Self.ID && ms.node.StatusURL != "" {
			targets = append(targets, ms.node)
		}
	}
	targets = append(targets, m.pending...)
	m.mu.Unlock()

	type result struct {
		target Node
		doc    statusDoc
		err    error
	}
	results := make([]result, len(targets))
	var wg sync.WaitGroup
	for i, n := range targets {
		wg.Add(1)
		go func(i int, n Node) {
			defer wg.Done()
			doc, err := m.probe(n)
			results[i] = result{target: n, doc: doc, err: err}
		}(i, n)
	}
	wg.Wait()

	m.mu.Lock()
	for _, r := range results {
		if r.target.ID == "" {
			// An address-only seed: a successful probe identifies it.
			if r.err != nil || r.doc.NodeID == "" {
				continue
			}
			identified := r.target
			identified.ID = r.doc.NodeID
			if len(r.doc.CNAddrs) > 0 {
				identified.CNAddrs = append([]string(nil), r.doc.CNAddrs...)
			}
			delete(m.left, identified.ID) // probing it on purpose = rejoin
			if m.addMemberLocked(identified) {
				changed = true
			}
			m.pending = removePending(m.pending, r.target.StatusURL)
			changed = m.mergeGossipLocked(r.doc.Members) || changed
			acks = append(acks, ackObservation{node: identified, seq: r.doc.AckSeq})
			continue
		}
		ms := m.members[r.target.ID]
		if ms == nil {
			continue
		}
		err := r.err
		if err == nil && r.doc.NodeID != "" && r.doc.NodeID != r.target.ID {
			// The URL answered, but as somebody else: a stale seed entry or
			// a swapped deployment. Counting that as liveness would keep a
			// dead node on the ring because its address was reused.
			if m.mismatch != nil {
				m.mismatch.Inc()
			}
			m.cfg.Logf("cluster: probe of %s answered as %q; treating as failure",
				r.target.ID, r.doc.NodeID)
			err = &identityMismatchError{want: r.target.ID, got: r.doc.NodeID}
		}
		if err != nil {
			ms.fails++
			if ms.alive && ms.fails >= m.cfg.FailAfter {
				ms.alive = false
				changed = true
				m.cfg.Logf("cluster: node %s dead after %d failed probes", r.target.ID, ms.fails)
			}
			continue
		}
		ms.fails = 0
		if !ms.alive {
			ms.alive = true
			changed = true
			m.cfg.Logf("cluster: node %s back alive", r.target.ID)
		}
		if len(ms.node.CNAddrs) == 0 && len(r.doc.CNAddrs) > 0 {
			ms.node.CNAddrs = append([]string(nil), r.doc.CNAddrs...)
			changed = true
		}
		changed = m.mergeGossipLocked(r.doc.Members) || changed
		acks = append(acks, ackObservation{node: ms.node, seq: r.doc.AckSeq})
	}
	m.mu.Unlock()
	return changed, acks
}

// mergeGossipLocked folds a probed node's alive view into the member set;
// the caller holds m.mu. Only unknown, non-tombstoned nodes are added
// (optimistically alive, then subject to our own probes); gossip never
// changes what we believe about nodes we already track.
func (m *Membership) mergeGossipLocked(members []WireMember) (changed bool) {
	for _, wm := range members {
		if wm.ID == "" || wm.StatusURL == "" {
			continue
		}
		if m.addMemberLocked(Node{ID: wm.ID, StatusURL: wm.StatusURL, CNAddrs: wm.CNAddrs}) {
			changed = true
		}
	}
	return changed
}

func removePending(pending []Node, statusURL string) []Node {
	out := pending[:0]
	for _, p := range pending {
		if p.StatusURL != statusURL {
			out = append(out, p)
		}
	}
	return out
}

// maxStatusDocBytes caps how much of a status document the probe will read:
// a garbage or hostile endpoint must prove liveness with its 200, not
// balloon the prober's memory.
const maxStatusDocBytes = 1 << 20

func (m *Membership) probe(n Node) (statusDoc, error) {
	var doc statusDoc
	req, err := http.NewRequest(http.MethodGet, n.StatusURL+"/v1/status", nil)
	if err != nil {
		return doc, err
	}
	// Announce ourselves: the probed node learns us from these headers, the
	// push half of seed exchange.
	req.Header.Set(HeaderProbeID, m.cfg.Self.ID)
	req.Header.Set(HeaderProbeURL, m.cfg.Self.StatusURL)
	req.Header.Set(HeaderProbeCNs, strings.Join(m.cfg.Self.CNAddrs, ","))
	resp, err := m.client.Do(req)
	if err != nil {
		return doc, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc, &probeError{status: resp.Status}
	}
	// A decode failure still proves liveness — the node answered 200; the
	// enrichment just doesn't happen this round.
	if jerr := json.NewDecoder(io.LimitReader(resp.Body, maxStatusDocBytes)).Decode(&doc); jerr != nil {
		return statusDoc{}, nil
	}
	return doc, nil
}

type probeError struct{ status string }

func (e *probeError) Error() string { return "probe status " + e.status }

type identityMismatchError struct{ want, got string }

func (e *identityMismatchError) Error() string {
	return "probe identity mismatch: configured " + e.want + ", status document says " + e.got
}
