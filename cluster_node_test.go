package netsession

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/logpipe"
)

// TestClusterRingOfOneIsJoinable: a single-node cluster is a ring of one, not
// a node outside any ring. A node joined to it from its status URL is learned
// through its probes, both converge on a two-node ring, and every region has
// exactly one owner — no region is served by both.
func TestClusterRingOfOneIsJoinable(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.CPProbeInterval = 50 * time.Millisecond
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddCPNode(c.ControlPlaneURL()); err != nil {
		t.Fatal(err)
	}
	converged := func() bool {
		for i := 0; i < c.NumCPNodes(); i++ {
			if c.ControlPlaneNode(i).Metrics().Snapshot().Gauges["cp_ring_nodes"] != 2 {
				return false
			}
		}
		return true
	}
	if !chaosEventually(10*time.Second, converged) {
		t.Fatal("the two nodes never agreed on a two-node ring")
	}
	for r := 0; r < geo.NumRegions; r++ {
		region := geo.NetworkRegion(r)
		owners := 0
		for i := 0; i < c.NumCPNodes(); i++ {
			if c.ControlPlaneNode(i).OwnsRegion(region) {
				owners++
			}
		}
		if owners != 1 {
			t.Errorf("region %v has %d owners, want exactly 1", region, owners)
		}
	}
}

// TestClusterRestartDedupsAckedBatch: exactly-once survives a single-node
// restart. A batch acked before the control plane closes is answered
// Duplicate by the control plane restarted on the same LogDir, and the
// segment store holds its record once.
func TestClusterRestartDedupsAckedBatch(t *testing.T) {
	cfg := DefaultClusterConfig()
	cfg.LogDir = t.TempDir()
	cfg.VerifyAccounting = false // the record has no edge ledger entry
	obj, err := NewObject(7005, "restart/acked.bin", 1, 1<<20, 1<<16, true)
	if err != nil {
		t.Fatal(err)
	}
	guid := id.NewGUID()
	line, err := logpipe.EncodeEntry(&logpipe.Entry{
		Kind: logpipe.EntryKindDownload, GUID: guid.String(), IP: "10.0.0.1",
		Object: obj.ID.Hex(), CP: 7005, Size: obj.Size,
		StartMs: 1, EndMs: 2, BytesInfra: obj.Size,
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := logpipe.MarshalSegment([][]byte{line})
	if err != nil {
		t.Fatal(err)
	}
	post := func(c *Cluster) logpipe.BatchResponse {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, c.ControlPlaneURL()+logpipe.BatchPath, bytes.NewReader(batch))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(logpipe.HeaderGUID, guid.String())
		req.Header.Set(logpipe.HeaderSeq, "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var br logpipe.BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("batch POST: %s (%v)", resp.Status, err)
		}
		return br
	}

	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if br := post(c); br.Accepted != 1 || br.Duplicate {
		t.Fatalf("first upload answered %+v, want the record accepted", br)
	}
	c.Close()

	c, err = StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if br := post(c); !br.Duplicate || br.Accepted != 0 {
		t.Fatalf("resend after restart answered %+v, want Duplicate", br)
	}
	stored, err := logpipe.ReadDownloads(cfg.LogDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(stored) != 1 {
		t.Fatalf("store holds %d records, want the acked one exactly once", len(stored))
	}
}
