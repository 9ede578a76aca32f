package controlplane

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"netsession/internal/cluster"
	"netsession/internal/geo"
	"netsession/internal/logpipe"
)

// startTestNode starts a node over the harness atlas, closed at cleanup.
func startTestNode(t *testing.T, mutate func(*Config)) *Node {
	t.Helper()
	return newHarness(t, mutate).node
}

// TestNodeQuickstartJoin runs the multi-node quickstart with the node
// assembly netsession-cp uses: a first node started with no seeds and no
// node ID, and a second that joins it from its bare status URL as an
// existing-cluster joiner. The first node must learn the joiner (it is a
// ring of one, not a node outside any ring), both must settle on a two-node
// ring, and every region must have exactly one owner.
func TestNodeQuickstartJoin(t *testing.T) {
	first := startTestNode(t, nil)
	second := startTestNode(t, func(c *Config) {
		c.Seeds = []cluster.Node{{StatusURL: first.StatusURL()}}
		c.JoinExisting = true
		c.ProbeInterval = 20 * time.Millisecond
	})
	for _, n := range []*Node{first, second} {
		if want := strings.TrimPrefix(n.StatusURL(), "http://"); n.ID() != want {
			t.Errorf("node without a NodeID is %q, want its status address %q", n.ID(), want)
		}
	}
	waitUntil(t, 5*time.Second, func() bool {
		return ringSize(first) == 2 && ringSize(second) == 2
	}, "ring sizes %v/%v, want 2/2", ringSize(first), ringSize(second))
	// The joiner's probe headers carry its CN address, so the first node
	// can redirect logins to it without waiting for a probe of its own.
	for _, m := range first.ControlPlane().Status().Members {
		if m.ID == second.ID() && (len(m.CNAddrs) != 1 || m.CNAddrs[0] != second.CNs()[0].Addr()) {
			t.Errorf("first node knows the joiner's CNs as %v, want [%s]", m.CNAddrs, second.CNs()[0].Addr())
		}
	}
	for r := 0; r < geo.NumRegions; r++ {
		region := geo.NetworkRegion(r)
		a, b := first.ControlPlane().OwnsRegion(region), second.ControlPlane().OwnsRegion(region)
		if a == b {
			t.Errorf("region %v: first owns=%v, second owns=%v; want exactly one owner", region, a, b)
		}
	}
}

func ringSize(n *Node) float64 {
	return n.ControlPlane().Metrics().Snapshot().Gauges["cp_ring_nodes"]
}

// TestNodeLogDirMetrics: a node with a log dir exposes its segment store's
// series on the status surface's /metrics, zero before any traffic.
func TestNodeLogDirMetrics(t *testing.T) {
	n := startTestNode(t, func(c *Config) { c.LogDir = t.TempDir() })
	resp, err := http.Get(n.StatusURL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"logpipe_store_records_total", "logpipe_ack_sync_pulls_total"} {
		if !strings.Contains(string(body), series) {
			t.Errorf("/metrics lacks %s", series)
		}
	}
}

// TestDrainStopsProbingBeforeLeave: once a draining node has announced its
// leave, no probe carrying its identity may reach a survivor — the survivor
// would take it for a deliberate rejoin, clear the tombstone, and hand the
// drained regions back. The survivor here is a stub that records probes;
// the drain goes through the operator's POST /v1/drain.
func TestDrainStopsProbingBeforeLeave(t *testing.T) {
	var mu sync.Mutex
	var probes, lateProbes int
	left := false
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/status", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if r.Header.Get(cluster.HeaderProbeID) == "drainee" {
			probes++
			if left {
				lateProbes++
			}
		}
		mu.Unlock()
		io.WriteString(w, `{"nodeId":"survivor"}`)
	})
	ok := func(http.ResponseWriter, *http.Request) {}
	mux.HandleFunc("POST "+HandoffPath, ok)
	mux.HandleFunc("POST "+logpipe.AcksPath, ok)
	mux.HandleFunc("POST "+LeavePath, func(http.ResponseWriter, *http.Request) {
		mu.Lock()
		left = true
		mu.Unlock()
	})
	survivor := httptest.NewServer(mux)
	defer survivor.Close()

	n := startTestNode(t, func(c *Config) {
		c.NodeID = "drainee"
		c.Seeds = []cluster.Node{{ID: "survivor", StatusURL: survivor.URL}}
		c.ProbeInterval = 5 * time.Millisecond
	})
	count := func() (all, late int, gone bool) {
		mu.Lock()
		defer mu.Unlock()
		return probes, lateProbes, left
	}
	waitUntil(t, 5*time.Second, func() bool { all, _, _ := count(); return all >= 3 },
		"the node never probed its survivor")
	resp, err := http.Post(n.StatusURL()+DrainPath, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, _, gone := count(); !gone {
		t.Fatal("the drain never announced its leave")
	}
	// Twenty probe intervals: a node still probing would show up at once.
	if eventually(100*time.Millisecond, func() bool { _, late, _ := count(); return late > 0 }) {
		_, late, _ := count()
		t.Fatalf("%d probes with the drained node's identity reached the survivor after its leave", late)
	}
}
