package cluster

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"netsession/internal/telemetry"
)

// TestMembershipGossipDiscovery is the seed-exchange tentpole property: a
// node seeded with one bare address (no ID, no other members) transitively
// discovers the whole cluster from that seed's status document.
func TestMembershipGossipDiscovery(t *testing.T) {
	// cp-2 is never in the seed list; it is only reachable through cp-1's
	// gossiped view.
	stub2 := &statusStub{doc: `{"nodeId":"cp-2","cnAddrs":["10.0.2.2:700"]}`}
	srv2 := httptest.NewServer(stub2)
	defer srv2.Close()
	stub1 := &statusStub{doc: fmt.Sprintf(
		`{"nodeId":"cp-1","cnAddrs":["10.0.1.2:700"],"members":[{"id":"cp-1","statusUrl":"stub"},{"id":"cp-2","statusUrl":%q}]}`,
		srv2.URL)}
	srv1 := httptest.NewServer(stub1)
	defer srv1.Close()

	reg := telemetry.NewRegistry()
	m := New(Config{
		Self: Node{ID: "cp-0", StatusURL: "http://self.invalid"},
		// Address-only seed: the ID must be learned from the first probe.
		Seeds:         []Node{{StatusURL: srv1.URL}},
		ProbeInterval: 10 * time.Millisecond,
		Telemetry:     reg,
	})
	m.Start()
	defer m.Stop()

	waitFor(t, "transitive discovery of cp-1 and cp-2", func() bool {
		ids := make(map[string]bool)
		for _, n := range m.Members() {
			ids[n.ID] = true
		}
		return ids["cp-0"] && ids["cp-1"] && ids["cp-2"]
	})
	// cp-2 gets probed directly once learned; its CN addresses follow.
	waitFor(t, "cp-2 CN enrichment", func() bool {
		for _, n := range m.Members() {
			if n.ID == "cp-2" && len(n.CNAddrs) == 1 {
				return true
			}
		}
		return false
	})
	if got := reg.Snapshot().Counters["cluster_members_learned_total"]; got < 2 {
		t.Fatalf("cluster_members_learned_total = %d, want >= 2 (identified seed + gossiped member)", got)
	}
}

// TestMembershipJoinModeDefersFirstView verifies a joining node does not
// publish a lonely self-only view: the first OnChange fires only once
// discovery has found another member.
func TestMembershipJoinModeDefersFirstView(t *testing.T) {
	stub := &statusStub{doc: `{"nodeId":"cp-1"}`}
	srv := httptest.NewServer(stub)
	defer srv.Close()

	var mu sync.Mutex
	var views []View
	m := New(Config{
		Self:          Node{ID: "cp-9", StatusURL: "http://self.invalid"},
		Seeds:         []Node{{StatusURL: srv.URL}},
		ProbeInterval: 10 * time.Millisecond,
		JoinMode:      true,
		OnChange: func(v View) {
			mu.Lock()
			views = append(views, v)
			mu.Unlock()
		},
	})
	m.Start()
	defer m.Stop()

	waitFor(t, "first view after discovery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(views) > 0
	})
	mu.Lock()
	first := views[0]
	mu.Unlock()
	if len(first.Nodes) < 2 {
		t.Fatalf("joining node's first view had %d nodes, want >= 2 (self-only views claim every region)", len(first.Nodes))
	}
}

// TestMembershipProbeIdentityMismatch: a URL that answers as a different
// node must not keep the configured member alive — a reused address would
// otherwise pin a dead node on the ring forever.
func TestMembershipProbeIdentityMismatch(t *testing.T) {
	stub := &statusStub{doc: `{"nodeId":"cp-IMPOSTOR"}`}
	srv := httptest.NewServer(stub)
	defer srv.Close()

	reg := telemetry.NewRegistry()
	m := New(Config{
		Self:          Node{ID: "cp-0"},
		Seeds:         []Node{{ID: "cp-1", StatusURL: srv.URL}},
		ProbeInterval: 5 * time.Millisecond,
		FailAfter:     2,
		Telemetry:     reg,
	})
	m.Start()
	defer m.Stop()

	waitFor(t, "mismatched node demoted", func() bool { return m.AliveCount() == 1 })
	if got := reg.Snapshot().Counters["cluster_probe_identity_mismatch_total"]; got < 2 {
		t.Fatalf("cluster_probe_identity_mismatch_total = %d, want >= FailAfter", got)
	}
	// The impostor's view must not have been merged either.
	for _, n := range m.Members() {
		if n.ID == "cp-IMPOSTOR" {
			t.Fatal("mismatched identity was learned as a member")
		}
	}
}

// TestMembershipGarbageStatusDoc: an oversized or garbage body still proves
// liveness (the 200 is the health signal) but must not balloon memory or
// get merged.
func TestMembershipGarbageStatusDoc(t *testing.T) {
	garbage := strings.Repeat("x", 5<<20) // 5 MiB of not-JSON
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(garbage))
	}))
	defer srv.Close()

	// Probe rounds run synchronously with a generous timeout (the probe
	// interval): on a loaded box a 5 ms timeout would fail the probe itself
	// and demote the node for the wrong reason.
	const failAfter = 2
	m := New(Config{
		Self:          Node{ID: "cp-0"},
		Seeds:         []Node{{ID: "cp-1", StatusURL: srv.URL}},
		ProbeInterval: 30 * time.Second,
		FailAfter:     failAfter,
	})
	defer m.Stop()
	for i := 0; i <= failAfter; i++ {
		m.probeAll()
	}
	if m.AliveCount() != 2 {
		t.Fatal("garbage status doc demoted a live node; 200 alone should prove liveness")
	}
}

// TestMembershipStopClosesConnections: Stop must release the probe client's
// kept-alive connections, not leak them until process exit.
func TestMembershipStopClosesConnections(t *testing.T) {
	var mu sync.Mutex
	open := make(map[string]bool)
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"nodeId":"cp-1"}`))
	}))
	srv.Config.ConnState = func(c net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch st {
		case http.StateNew:
			open[c.RemoteAddr().String()] = true
		case http.StateClosed:
			delete(open, c.RemoteAddr().String())
		}
	}
	srv.Start()
	defer srv.Close()

	m := New(Config{
		Self:          Node{ID: "cp-0"},
		Seeds:         []Node{{ID: "cp-1", StatusURL: srv.URL}},
		ProbeInterval: 5 * time.Millisecond,
	})
	m.Start()
	waitFor(t, "at least one probe connection", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(open) > 0
	})
	m.Stop()
	waitFor(t, "probe connections closed after Stop", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(open) == 0
	})
}

// TestMembershipLeaveTombstone: a node removed via MarkLeft must not be
// resurrected by gossip (survivors still list it for a while), but a direct
// probe from the node itself — a deliberate rejoin — brings it back.
func TestMembershipLeaveTombstone(t *testing.T) {
	// The survivor's status doc still gossips the departed cp-2.
	stub := &statusStub{doc: `{"nodeId":"cp-1","members":[{"id":"cp-2","statusUrl":"http://stale.invalid"}]}`}
	srv := httptest.NewServer(stub)
	defer srv.Close()

	m := New(Config{
		Self:          Node{ID: "cp-0", StatusURL: "http://self.invalid"},
		Seeds:         []Node{{ID: "cp-1", StatusURL: srv.URL}, {ID: "cp-2", StatusURL: "http://stale.invalid"}},
		ProbeInterval: 10 * time.Millisecond,
		FailAfter:     1000, // keep probe-failure demotion out of the picture
	})
	m.Start()
	defer m.Stop()

	m.MarkLeft("cp-2")
	if m.AliveCount() != 2 {
		t.Fatalf("alive count after leave = %d, want 2", m.AliveCount())
	}
	// Several probe rounds of stale gossip must not bring cp-2 back.
	time.Sleep(100 * time.Millisecond)
	for _, n := range m.Members() {
		if n.ID == "cp-2" {
			t.Fatal("gossip resurrected a node that left")
		}
	}
	// A direct probe from cp-2 itself is a deliberate rejoin.
	m.ObserveProber(Node{ID: "cp-2", StatusURL: "http://fresh.invalid"})
	found := false
	for _, n := range m.Members() {
		if n.ID == "cp-2" {
			found = true
		}
	}
	if !found {
		t.Fatal("direct probe did not clear the leave tombstone")
	}
}

// TestRingMoveBoundsOnTransitions asserts the rebalance cost envelope the
// drain and failover paths lean on, across all three transitions: a node
// joining, a node dying, and a node draining must each relocate only the
// regions that node gains or owned — every other region stays put.
func TestRingMoveBoundsOnTransitions(t *testing.T) {
	owners := func(ids []string) map[string]string {
		r := NewRing(ids)
		out := make(map[string]string, len(regionKeys))
		for _, k := range regionKeys {
			id, ok := r.Owner(k)
			if !ok {
				t.Fatalf("no owner for %q with nodes %v", k, ids)
			}
			out[k] = id
		}
		return out
	}

	three := owners([]string{"cp-0", "cp-1", "cp-2"})

	// Join: a fourth node takes some regions; none move between survivors.
	four := owners([]string{"cp-0", "cp-1", "cp-2", "cp-3"})
	joined := 0
	for _, k := range regionKeys {
		switch {
		case four[k] == "cp-3":
			joined++
		case four[k] != three[k]:
			t.Fatalf("join moved %q between pre-existing nodes: %s -> %s", k, three[k], four[k])
		}
	}

	// Kill/drain (ring-wise identical): removing cp-3 returns exactly its
	// regions to their previous owners.
	afterLoss := owners([]string{"cp-0", "cp-1", "cp-2"})
	for _, k := range regionKeys {
		if afterLoss[k] != three[k] {
			t.Fatalf("removal did not restore %q to its prior owner: %s vs %s", k, afterLoss[k], three[k])
		}
	}

	// And removing a different node moves only that node's regions.
	afterDrain := owners([]string{"cp-0", "cp-2", "cp-3"})
	for _, k := range regionKeys {
		if four[k] != "cp-1" && afterDrain[k] != four[k] {
			t.Fatalf("draining cp-1 moved %q owned by %s", k, four[k])
		}
		if four[k] == "cp-1" && afterDrain[k] == "cp-1" {
			t.Fatalf("region %q still owned by drained node", k)
		}
	}
}

// TestMembershipMovedRegionsAcrossLifecycle drives a live membership
// through join, leave, and death and checks the observed view transitions
// obey the same move bounds as the raw ring.
func TestMembershipMovedRegionsAcrossLifecycle(t *testing.T) {
	stub := &statusStub{doc: `{"nodeId":"cp-1"}`}
	srv := httptest.NewServer(stub)
	defer srv.Close()

	var mu sync.Mutex
	var views []View
	m := New(Config{
		Self:          Node{ID: "cp-0", StatusURL: "http://self.invalid"},
		Seeds:         []Node{{ID: "cp-1", StatusURL: srv.URL}},
		ProbeInterval: 10 * time.Millisecond,
		FailAfter:     2,
		OnChange: func(v View) {
			mu.Lock()
			views = append(views, v)
			mu.Unlock()
		},
	})
	m.Start()
	defer m.Stop()

	// Join via prober headers (the push half of seed exchange).
	m.ObserveProber(Node{ID: "cp-2", StatusURL: "http://joiner.invalid"})
	waitFor(t, "three-node view", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(views) > 0 && len(views[len(views)-1].Nodes) == 3
	})
	mu.Lock()
	before := views[len(views)-2] // two-node view preceding the join
	after := views[len(views)-1]
	mu.Unlock()
	for _, k := range regionKeys {
		b, _ := before.Owner(k)
		a, _ := after.Owner(k)
		if a.ID != "cp-2" && a.ID != b.ID {
			t.Fatalf("join moved %q between survivors: %s -> %s", k, b.ID, a.ID)
		}
	}

	// Leave: regions owned by the departed node move, others stay.
	m.MarkLeft("cp-2")
	mu.Lock()
	postLeave := views[len(views)-1]
	mu.Unlock()
	for _, k := range regionKeys {
		b, _ := after.Owner(k)
		a, ok := postLeave.Owner(k)
		if !ok {
			t.Fatalf("no owner for %q after leave", k)
		}
		if b.ID != "cp-2" && a.ID != b.ID {
			t.Fatalf("leave moved %q owned by survivor %s to %s", k, b.ID, a.ID)
		}
		if a.ID == "cp-2" {
			t.Fatalf("region %q still owned by departed node", k)
		}
	}

	// Death by probe failure behaves the same way.
	stub.setDead(true)
	waitFor(t, "death view", func() bool { return m.AliveCount() == 1 })
	mu.Lock()
	postDeath := views[len(views)-1]
	mu.Unlock()
	for _, k := range regionKeys {
		if owner, ok := postDeath.Owner(k); !ok || owner.ID != "cp-0" {
			t.Fatalf("sole survivor does not own %q", k)
		}
	}
}
