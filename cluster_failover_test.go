package netsession

import (
	"context"
	"net/netip"
	"strings"
	"testing"
	"time"

	"netsession/internal/geo"
	"netsession/internal/protocol"
)

// failoverOutcome is what a scenario run accounts: every completed download
// that reached a live control-plane node, and the bytes those records claim.
type failoverOutcome struct {
	downloads int
	bytes     int64
}

// runFailoverScenario drives the same workload against a cluster of cpNodes
// control-plane nodes: three seeds (one per country), a wave of leeches, an
// optional SIGKILL of the node owning the US seed's region, and a second
// wave spawned after the kill. Usage reports ride the durable log spool and
// are drained only at the end — after the kill — so every record lands on a
// live node and the accounting totals are comparable across runs.
func runFailoverScenario(t *testing.T, cpNodes int, kill bool) failoverOutcome {
	t.Helper()
	cfg := DefaultClusterConfig()
	cfg.CPNodes = cpNodes
	cfg.CPProbeInterval = 100 * time.Millisecond
	cfg.CPFailAfter = 3
	// A generous rebuild window keeps the takeover observable: peers logging
	// into the new owner while it rebuilds are asked to RE-ADD.
	cfg.DNRebuildWindow = 2 * time.Second
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj, err := NewObject(7001, "failover/payload.bin", 1, 200_000, 16<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(obj); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 180*time.Second)
	defer cancel()

	countries := []string{"US", "DE", "JP"}
	var peers []*Peer

	spawn := func(country string) (*Peer, string) {
		ip, err := c.AllocateIdentity(country)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPeer(PeerConfig{
			DeclaredIP:     ip,
			ControlAddrs:   c.ControlAddrs(),
			EdgeURL:        c.EdgeURL(),
			UploadsEnabled: true,
			StateDir:       t.TempDir(),
			// Comma-separated: the uploader rotates across every node's
			// ingest endpoint, so a dead node cannot strand the spool.
			LogUploadURL:      strings.Join(c.ControlPlaneURLs(), ","),
			LogUploadInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		peers = append(peers, p)
		return p, ip
	}
	waitDone := func(dl *Download, who string) {
		res, err := dl.Wait(ctx)
		if err != nil {
			t.Fatalf("%s: %v", who, err)
		}
		if res.Outcome != protocol.OutcomeCompleted {
			t.Fatalf("%s outcome %v", who, res.Outcome)
		}
		if res.BytesInfra+res.BytesPeers != obj.Size {
			t.Fatalf("%s bytes %d+%d, want %d",
				who, res.BytesInfra, res.BytesPeers, obj.Size)
		}
	}
	download := func(p *Peer, who string) *Download {
		dl, err := p.Download(obj.ID)
		if err != nil {
			t.Fatalf("%s: %v", who, err)
		}
		return dl
	}
	regionOf := func(ipStr string) geo.NetworkRegion {
		ip, err := netip.ParseAddr(ipStr)
		if err != nil {
			t.Fatal(err)
		}
		rec, ok := c.scape.Lookup(ip)
		if !ok {
			t.Fatalf("identity %s not in the scape", ipStr)
		}
		return geo.RegionOf(rec)
	}
	victim := -1
	ownerOf := func(r geo.NetworkRegion) int {
		for i, n := range c.nodes {
			if i == victim {
				continue
			}
			if n.ControlPlane().OwnsRegion(r) {
				return i
			}
		}
		t.Fatalf("no live node owns region %v", r)
		return -1
	}

	// Seeds: one completed download per country so every region has a
	// holder registered with its directory's owner.
	var usIP string
	var seedIPs []string
	for _, country := range countries {
		p, ip := spawn(country)
		if country == "US" {
			usIP = ip
		}
		seedIPs = append(seedIPs, ip)
		waitDone(download(p, "seed "+country), "seed "+country)
	}
	for _, ip := range seedIPs {
		r := regionOf(ip)
		owner := ownerOf(r)
		if !chaosEventually(10*time.Second, func() bool {
			return c.nodes[owner].ControlPlane().DN(r).Copies(obj.ID) >= 1
		}) {
			t.Fatalf("seed registration for region %v never reached node %d", r, owner)
		}
	}

	wave := func(tag string) {
		var dls []*Download
		var names []string
		for _, country := range countries {
			for i := 0; i < 2; i++ {
				p, _ := spawn(country)
				who := tag + " " + country
				dls = append(dls, download(p, who))
				names = append(names, who)
			}
		}
		for i, dl := range dls {
			waitDone(dl, names[i])
		}
	}
	wave("wave1")

	if kill {
		usRegion := regionOf(usIP)
		victim = ownerOf(usRegion)
		t.Logf("killing node %d (owner of US region %v)", victim, usRegion)
		c.KillCPNode(victim)
		// Survivors must converge on a ring without the dead node...
		if !chaosEventually(15*time.Second, func() bool {
			for i, n := range c.nodes {
				if i == victim {
					continue
				}
				if n.ControlPlane().Metrics().Snapshot().Gauges["cp_ring_nodes"] != float64(cpNodes-1) {
					return false
				}
			}
			return true
		}) {
			t.Fatal("surviving nodes never converged on the post-kill ring")
		}
		// ...and exactly one survivor must have taken the US region over.
		newOwner := ownerOf(usRegion)
		if newOwner == victim {
			t.Fatalf("region %v still owned by the killed node", usRegion)
		}
		t.Logf("node %d took over region %v", newOwner, usRegion)
	}

	// Wave 2 starts after the kill: fresh peers must log in, be routed to
	// the region's live owner, and complete hash-verified — nobody strands.
	wave("wave2")

	// Drain every spool now that the fleet's state is final; with a node
	// dead, the uploaders fail over to any live ingest and the shared batch
	// dedup keeps cross-node retries exactly-once.
	for i, p := range peers {
		if err := p.FlushLogs(ctx); err != nil {
			t.Fatalf("peer %d flush: %v", i, err)
		}
	}
	log := c.AccountingLog()
	var total int64
	for _, d := range log.Downloads {
		if d.BytesInfra+d.BytesPeers != obj.Size {
			t.Fatalf("accounted record claims %d+%d bytes, want %d",
				d.BytesInfra, d.BytesPeers, obj.Size)
		}
		total += d.BytesInfra + d.BytesPeers
	}
	if c.RejectedReports() != 0 {
		t.Fatalf("%d legitimate reports rejected", c.RejectedReports())
	}

	if kill {
		// The handoff must be visible in the survivors' telemetry: a region
		// takeover happened, and the rebuild collected RE-ADDs.
		var readds, handoffs int64
		for i, n := range c.nodes {
			if i == victim {
				continue
			}
			snap := n.ControlPlane().Metrics().Snapshot()
			readds += snap.Counters["cp_readds_total"]
			for key, v := range snap.Counters {
				if strings.HasPrefix(key, "cp_region_handoffs_total{") {
					handoffs += v
				}
			}
		}
		if handoffs == 0 {
			t.Error("no survivor counted a region handoff after the kill")
		}
		if readds == 0 {
			t.Error("cp_readds_total = 0 on the survivors; the takeover never rebuilt from RE-ADDs")
		}
		var failovers int64
		for _, p := range peers {
			failovers += p.Metrics().Snapshot().Counters["peer_cp_failovers_total"]
		}
		if failovers == 0 {
			t.Error("peer_cp_failovers_total = 0 across the fleet; nobody re-homed to a new CP node")
		}
	}
	return failoverOutcome{downloads: len(log.Downloads), bytes: total}
}

// TestClusterFailoverZeroLoss is the headline robustness test: the same
// workload is run against a single-node control plane (the baseline) and a
// three-node cluster that loses the node owning the busiest region mid-run.
// Every download must complete hash-verified, the ring must converge, the
// handoff must show up in telemetry, and the summed accounting bytes must
// equal the no-kill run exactly — node loss costs availability of nothing.
func TestClusterFailoverZeroLoss(t *testing.T) {
	baseline := runFailoverScenario(t, 1, false)
	failover := runFailoverScenario(t, 3, true)
	if failover.downloads != baseline.downloads {
		t.Errorf("failover run accounted %d downloads, baseline %d",
			failover.downloads, baseline.downloads)
	}
	if failover.bytes != baseline.bytes {
		t.Errorf("failover run accounted %d bytes, baseline %d (zero-loss broken)",
			failover.bytes, baseline.bytes)
	}
}
