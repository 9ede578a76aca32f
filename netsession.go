// Package netsession is a from-scratch reproduction of Akamai's NetSession
// peer-assisted (hybrid) CDN, as described in "Peer-Assisted Content
// Distribution in Akamai NetSession" (Zhao et al., IMC 2013).
//
// The package exposes three layers:
//
//   - A live system: Cluster starts an edge tier and a control plane
//     (connection nodes, database nodes, monitoring) on real sockets, and
//     NewPeer runs a NetSession Interface client that downloads content in
//     parallel from the edge (HTTP) and from other peers (a BitTorrent-like
//     swarming protocol without incentives), with hash verification,
//     upload limits and usage accounting.
//
//   - A deterministic simulator: RunScenario executes the same directory,
//     selection, policy and accounting code over a flow-level network model
//     at tens of thousands of peers and a month of virtual time.
//
//   - The paper's evaluation: Experiment wraps a simulation result and
//     reproduces every table and figure of the paper (Tables 1–4, Figures
//     2–12 and the headline statistics of Sections 5 and 6).
package netsession

import (
	"fmt"

	"netsession/internal/accounting"
	"netsession/internal/analysis"
	"netsession/internal/content"
	"netsession/internal/faults"
	"netsession/internal/id"
	"netsession/internal/peer"
	"netsession/internal/protocol"
	"netsession/internal/sim"
)

// Re-exported core types. The internal packages carry the implementation;
// these aliases are the supported public surface.
type (
	// Object is one distributable object version with its secure content ID.
	Object = content.Object
	// ObjectID is the secure per-version content identifier.
	ObjectID = content.ObjectID
	// CPCode identifies a content-provider account.
	CPCode = content.CPCode
	// GUID is the peer installation identifier.
	GUID = id.GUID
	// Peer is a running NetSession Interface client.
	Peer = peer.Client
	// PeerConfig configures a Peer.
	PeerConfig = peer.Config
	// Download is an in-progress Download-Manager transfer.
	Download = peer.Download
	// DownloadResult summarizes a finished transfer.
	DownloadResult = peer.Result
	// NATClass is a peer's NAT/firewall classification.
	NATClass = protocol.NATClass
	// Scenario parameterizes a simulation run.
	Scenario = sim.ScenarioConfig
	// ScenarioResult is a finished simulation.
	ScenarioResult = sim.Result
	// Log is the accounting log set (downloads, logins, registrations).
	Log = accounting.Log
	// FaultProfile configures deterministic fault injection for the live
	// cluster (ClusterConfig.EdgeFaults / CNFaults).
	FaultProfile = faults.Config
	// SimFaults configures fault injection inside the simulator
	// (Scenario.Faults).
	SimFaults = faults.SimConfig
)

// NAT classes, re-exported for PeerConfig.
const (
	NATNone           = protocol.NATNone
	NATFullCone       = protocol.NATFullCone
	NATRestricted     = protocol.NATRestricted
	NATPortRestricted = protocol.NATPortRestricted
	NATSymmetric      = protocol.NATSymmetric
	NATBlocked        = protocol.NATBlocked
)

// NewObject creates object metadata with its secure content ID.
// Size is in bytes; pieceSize <= 0 selects the 1 MiB default.
func NewObject(cp CPCode, url string, version uint32, size int64, pieceSize int, p2pEnabled bool) (*Object, error) {
	return content.NewObject(cp, url, version, size, pieceSize, p2pEnabled)
}

// DefaultScenario returns the experiment-scale simulation configuration.
func DefaultScenario() Scenario { return sim.DefaultScenario() }

// SmallScenario returns a fast configuration for tests and demos.
func SmallScenario() Scenario { return sim.SmallScenario() }

// XLScenario returns the 60k-peer month, the region-sharded scale target.
func XLScenario() Scenario { return sim.XLScenario() }

// MScenario returns the quarter-million-peer month.
func MScenario() Scenario { return sim.MScenario() }

// StreamingScenario returns the deadline-driven delivery scenario: Zipf-hot
// episodic demand, shorter serving sessions, and most requests consumed as
// fixed-bitrate streams reporting startup/rebuffer/deadline metrics.
func StreamingScenario() Scenario { return sim.StreamingScenario() }

// XXLScenario returns the million-peer month, the memory-lean engine's
// paper-scale target.
func XXLScenario() Scenario { return sim.XXLScenario() }

// RunScenario executes a simulation to completion.
func RunScenario(cfg Scenario) (*ScenarioResult, error) { return sim.Run(cfg) }

// NewPeer starts a NetSession Interface client. The returned Peer is live:
// its control connection is up and its swarm listener accepts connections.
func NewPeer(cfg PeerConfig) (*Peer, error) { return peer.New(cfg) }

// Experiment wraps a simulation result with the paper's analyses.
type Experiment struct {
	cfg Scenario
	res *ScenarioResult
	in  *analysis.Input
}

// RunExperiment runs a scenario and prepares its analyses.
func RunExperiment(cfg Scenario) (*Experiment, error) {
	res, err := sim.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("netsession: experiment: %w", err)
	}
	return &Experiment{cfg: cfg, res: res, in: res.Input()}, nil
}

// Result returns the raw simulation result.
func (e *Experiment) Result() *ScenarioResult { return e.res }

// Input returns the analysis input for custom analyses.
func (e *Experiment) Input() *analysis.Input { return e.in }

// Report analyses the month and renders every table and figure as text, in
// paper order.
func (e *Experiment) Report() string { return analysis.Analyze(e.in, e.cfg.Days).Report() }

// Headlines analyses the month and returns the scalar summary quoted in the
// paper's running text.
func (e *Experiment) Headlines() analysis.Headlines {
	return analysis.Analyze(e.in, e.cfg.Days).Headlines()
}
