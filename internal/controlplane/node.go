package controlplane

import (
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"

	"netsession/internal/cluster"
	"netsession/internal/logpipe"
	"netsession/internal/telemetry"
)

// Node is one assembled control-plane node, built the same way whether
// netsession-cp runs it or the in-process cluster starts several: the
// segment and ack stores under the log dir, the anti-entropy syncer, the
// control plane with its CNs, the operator HTTP surface and cluster
// membership. Every node is a cluster member; one started without seeds is
// a ring of one that other nodes can join.
type Node struct {
	cp       *ControlPlane
	cns      []*CN
	status   *statusServer
	closed   sync.Once
	closeErr error
}

// StartNode assembles and starts a node. The first ring view is applied and
// one probe round has run before it returns, so every seed that is up
// already counts this node as a member.
func StartNode(cfg Config) (*Node, error) {
	if cfg.Scape == nil {
		return nil, fmt.Errorf("controlplane: Config.Scape is required")
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	if cfg.StatusAddr == "" {
		cfg.StatusAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.StatusAddr)
	if err != nil {
		return nil, fmt.Errorf("controlplane: status listen: %w", err)
	}
	if cfg.NodeID == "" {
		cfg.NodeID = ln.Addr().String()
	}
	store, acks, err := openLogDir(cfg.LogDir, cfg.Telemetry)
	if err != nil {
		ln.Close()
		return nil, err
	}
	syncer := logpipe.NewAckSyncer(logpipe.AckSyncerConfig{
		Store: acks, Telemetry: cfg.Telemetry, Logf: cfg.Logf,
	})
	cp := newControlPlane(cfg, store, acks, syncer.SeenAnywhere)
	n := &Node{cp: cp}
	if err := cp.seedAnalytics(); err != nil {
		ln.Close()
		n.closeStores()
		return nil, err
	}
	self := cluster.Node{ID: cfg.NodeID, StatusURL: "http://" + ln.Addr().String()}
	for i := 0; i < max(cfg.CNs, 1); i++ {
		cn, err := cp.startCN("127.0.0.1:0")
		if err != nil {
			ln.Close()
			cp.Close()
			n.closeStores()
			return nil, err
		}
		n.cns = append(n.cns, cn)
		self.CNAddrs = append(self.CNAddrs, cn.Addr())
	}
	// Ring views feed the control plane and the syncer's peer set; advertised
	// ack sequences trigger anti-entropy pulls.
	cp.member = cluster.New(cluster.Config{
		Self:          self,
		Seeds:         cfg.Seeds,
		ProbeInterval: cfg.ProbeInterval,
		FailAfter:     cfg.FailAfter,
		JoinMode:      cfg.JoinExisting,
		Telemetry:     cfg.Telemetry,
		Logf:          cfg.Logf,
		OnChange: func(v cluster.View) {
			peers := make(map[string]string, len(v.Nodes))
			for _, m := range v.Nodes {
				if m.ID != self.ID {
					peers[m.ID] = m.StatusURL
				}
			}
			syncer.SetPeers(peers)
			cp.ApplyRingView(v)
		},
		OnAckSeq: func(m cluster.Node, seq uint64) {
			syncer.ObserveAckSeq(m.ID, m.StatusURL, seq)
		},
	})
	n.status = cp.serveStatus(ln)
	cp.member.Start()
	return n, nil
}

// openLogDir opens a node's durable state: segments directly in dir, where
// netsession-analyze reads them, and the ack store under dir/acks. Without
// a dir there is no segment store and the ack store is memory-only.
func openLogDir(dir string, reg *telemetry.Registry) (*logpipe.Store, *logpipe.AckStore, error) {
	if dir == "" {
		acks, err := logpipe.OpenAckStore("")
		return nil, acks, err
	}
	store, err := logpipe.OpenStore(logpipe.StoreConfig{Dir: dir, Telemetry: reg})
	if err != nil {
		return nil, nil, err
	}
	acks, err := logpipe.OpenAckStore(filepath.Join(dir, "acks"))
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	return store, acks, nil
}

// ControlPlane returns the node's control plane.
func (n *Node) ControlPlane() *ControlPlane { return n.cp }

// ID returns the node's cluster identity.
func (n *Node) ID() string { return n.cp.cfg.NodeID }

// CNs returns the node's connection nodes.
func (n *Node) CNs() []*CN { return n.cns }

// StatusURL returns the base URL of the node's operator HTTP surface.
func (n *Node) StatusURL() string { return "http://" + n.status.Addr() }

// Drain leaves the cluster gracefully — stop probing, hand off, flush acks,
// leave, close CNs — and then closes the node; the error is Close's.
func (n *Node) Drain() (DrainSummary, error) {
	sum := n.cp.drain()
	return sum, n.Close()
}

// Close stops the node without a handoff — probing, the status surface and
// the CNs, in that order — then checkpoints the ack store and seals the
// open log segment, returning what those two writes failed with. Safe to
// call again and after Kill or Drain.
func (n *Node) Close() error {
	n.closed.Do(func() {
		n.halt(func() { n.status.Close() })
		n.closeErr = n.closeStores()
	})
	return n.closeErr
}

// Kill stops the node abruptly, the in-process analogue of kill -9: the
// status surface and every control session close mid-flight, and nothing is
// handed off, flushed or checkpointed. Survivors find out by failed probes.
func (n *Node) Kill() { n.halt(n.status.Kill) }

// halt stops everything that talks to other nodes or peers, probing first.
func (n *Node) halt(closeStatus func()) {
	n.cp.member.Stop()
	closeStatus()
	n.cp.Close()
}

func (n *Node) closeStores() error {
	err := n.cp.acks.Close()
	if n.cp.store != nil {
		err = errors.Join(err, n.cp.store.Close())
	}
	return err
}
