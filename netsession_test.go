package netsession

import (
	"context"
	"testing"
	"time"

	"netsession/internal/protocol"
)

// TestClusterEndToEnd drives the public API exactly as the quickstart
// example does: start a cluster, publish an object, seed it, and download
// it peer-assisted on a second peer.
func TestClusterEndToEnd(t *testing.T) {
	cfg := DefaultClusterConfig()
	// A WAN-like edge: on bare loopback the leech can take all 25 pieces
	// from the edge before its peer query is answered.
	cfg.EdgeFaults = FaultProfile{LatencyMin: 2 * time.Millisecond, LatencyMax: 2 * time.Millisecond}
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obj, err := NewObject(1001, "game/patch-1.2.bin", 1, 400_000, 16<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(obj); err != nil {
		t.Fatal(err)
	}

	spawn := func(country string, uploads bool) *Peer {
		ip, err := c.AllocateIdentity(country)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPeer(PeerConfig{
			DeclaredIP:     ip,
			ControlAddrs:   c.ControlAddrs(),
			EdgeURL:        c.EdgeURL(),
			UploadsEnabled: uploads,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	seed := spawn("JP", true) // Japan maps to one control-plane region regardless of city
	dl, err := seed.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dl.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("seed outcome %v", res.Outcome)
	}

	// Give the registration a moment to land, then download on a second
	// peer in the same country.
	time.Sleep(200 * time.Millisecond)
	leech := spawn("JP", true)
	dl2, err := leech.Download(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := dl2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Outcome != protocol.OutcomeCompleted {
		t.Fatalf("leech outcome %v", res2.Outcome)
	}
	if res2.BytesPeers == 0 {
		t.Error("second download got no peer bytes")
	}
	if !leech.Store().Complete(obj.ID) {
		t.Error("leech store incomplete")
	}

	// Accounting flowed through verification.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(c.AccountingLog().Downloads) >= 2 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	log := c.AccountingLog()
	if len(log.Downloads) < 2 {
		t.Fatalf("accounting has %d records, want 2", len(log.Downloads))
	}
	if c.RejectedReports() != 0 {
		t.Errorf("%d legitimate reports rejected", c.RejectedReports())
	}
	// Identities resolve.
	if country, asn, ok := c.Lookup(log.Downloads[0].IP.String()); !ok || country != "JP" || asn == 0 {
		t.Errorf("identity lookup failed: %v %v %v", country, asn, ok)
	}
}

func TestRunExperimentTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	cfg := SmallScenario()
	cfg.NumPeers = 1500
	cfg.TotalDownloads = 3000
	cfg.Days = 5
	exp, err := RunExperiment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := exp.Headlines()
	if h.CompletionInfraPct < 80 {
		t.Errorf("completion %.1f%% too low", h.CompletionInfraPct)
	}
	if rep := exp.Report(); len(rep) < 1000 {
		t.Errorf("report too short: %d bytes", len(rep))
	}
	if exp.Result().Events == 0 || exp.Input() == nil {
		t.Error("experiment accessors broken")
	}
}

func TestAllocateIdentityUnknownCountry(t *testing.T) {
	c, err := StartCluster(DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AllocateIdentity("ZZ"); err == nil {
		t.Error("unknown country accepted")
	}
	if _, _, ok := c.Lookup("not-an-ip"); ok {
		t.Error("garbage IP resolved")
	}
}
