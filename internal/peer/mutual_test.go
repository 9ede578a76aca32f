package peer

import (
	"context"
	"sync"
	"testing"
	"time"

	"netsession/internal/protocol"
)

// TestMutualMidSwarmExchange: two peers that start downloading the same hot
// object concurrently discover each other via partial registrations and
// trade pieces both ways before either completes — the swarming behaviour
// of §3.4, where any holder of pieces is a source.
func TestMutualMidSwarmExchange(t *testing.T) {
	// Large enough that both downloads are still in flight when the first
	// quarter-point partial registration lands, even at loopback speeds.
	obj := e2eObject(t, 48_000_000, true)
	d := newDeployment(t, 1, obj)

	spawn := func() *Client {
		c, _ := d.atlas.Country("US")
		ip, err := d.scape.AllocateIP(c.ASNs[0], c.Locations[0])
		if err != nil {
			t.Fatal(err)
		}
		cl, err := New(Config{
			DeclaredIP:     ip.String(),
			ControlAddrs:   d.cnAddrs(),
			EdgeURL:        "http://" + d.edgeSrv.Addr(),
			UploadsEnabled: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Requery fast enough that the partial registrations are found while
		// both downloads are still running.
		cl.requery = 100 * time.Millisecond
		t.Cleanup(cl.Close)
		return cl
	}
	a := spawn()
	b := spawn()

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	results := make([]*Result, 2)
	for i, p := range []*Client{a, b} {
		wg.Add(1)
		go func(ix int, p *Client) {
			defer wg.Done()
			dl, err := p.Download(obj.ID)
			if err != nil {
				t.Errorf("peer %d: %v", ix, err)
				return
			}
			results[ix], _ = dl.Wait(ctx)
		}(i, p)
	}
	wg.Wait()

	for i, res := range results {
		if res == nil || res.Outcome != protocol.OutcomeCompleted {
			t.Fatalf("peer %d did not complete: %+v", i, res)
		}
	}
	// At least one direction of peer exchange must have happened; with
	// concurrent starts and quarter-point registrations, usually both.
	exchanged := results[0].BytesPeers + results[1].BytesPeers
	if exchanged == 0 {
		t.Error("concurrent downloads never exchanged a byte peer-to-peer")
	}
	t.Logf("A<-peers %d bytes, B<-peers %d bytes", results[0].BytesPeers, results[1].BytesPeers)
	verifyStored(t, a, obj)
	verifyStored(t, b, obj)
}
