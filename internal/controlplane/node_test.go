package controlplane

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"netsession/internal/accounting"
	"netsession/internal/analysis"
	"netsession/internal/cluster"
	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/id"
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

// TestRestartedNodeAnalyticsCoverItsStore: a node's /v1/analytics covers its
// whole log dir across restarts. Each round starts a node on the same dir,
// requires it to serve the document and analytics series the previous node
// served when it closed, and books another batch of records. A store with a
// torn segment that is not the last fails StartNode.
func TestRestartedNodeAnalyticsCoverItsStore(t *testing.T) {
	const rounds, perRound = 3, 200
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	guids := make([]id.GUID, 50)
	for i := range guids {
		guids[i] = id.NewGUID()
	}
	var (
		want       analysis.StreamingSummary
		wantSeries map[string]float64
		h          *harness
	)
	for round := 0; round <= rounds; round++ {
		h = newHarness(t, func(c *Config) { c.LogDir = dir })
		got := nodeAnalytics(t, h.node)
		if got.Downloads != int64(round*perRound) {
			t.Fatalf("round %d: restarted node serves %d downloads, its store holds %d", round, got.Downloads, round*perRound)
		}
		if round > 0 {
			requireSameAnalytics(t, got, want)
			if series := analyticsSeries(h.node); !reflect.DeepEqual(series, wantSeries) {
				t.Fatalf("round %d: analytics series %v, before the restart %v", round, series, wantSeries)
			}
		}
		if round == rounds {
			break
		}
		for i := 0; i < perRound; i++ {
			guid := guids[rng.Intn(len(guids))]
			if err := h.cp.ingestEntry(guid, restartEntry(t, h, rng, guid, guids)); err != nil {
				t.Fatal(err)
			}
		}
		want, wantSeries = nodeAnalytics(t, h.node), analyticsSeries(h.node)
		if err := h.node.Close(); err != nil {
			t.Fatal(err)
		}
	}
	h.node.Close()

	segs, err := logpipe.ListSegments(dir)
	if err != nil || len(segs) != rounds {
		t.Fatalf("store holds %d segments (%v), want one per round", len(segs), err)
	}
	raw, err := os.ReadFile(segs[0].Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0].Path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := StartNode(Config{Scape: h.scape, LogDir: dir}); err == nil {
		n.Close()
		t.Fatal("StartNode accepted a store with a torn middle segment")
	}
}

// restartEntry is a random usage entry booked to guid: any region, outcome
// and peer share, sometimes streamed.
func restartEntry(t *testing.T, h *harness, rng *rand.Rand, guid id.GUID, guids []id.GUID) *logpipe.Entry {
	t.Helper()
	home, err := h.scape.AllocateRandom(rng)
	if err != nil {
		t.Fatal(err)
	}
	oid := content.NewObjectID(7, fmt.Sprintf("restart/%d", rng.Intn(40)), 1)
	size := int64(1+rng.Intn(64)) << 20
	peers := size * int64(rng.Intn(101)) / 100
	e := &logpipe.Entry{
		Kind: logpipe.EntryKindDownload, IP: home.IP.String(),
		Object: oid.Hex(), URLHash: oid.Hex()[:8], CP: 7, Size: size,
		StartMs: rng.Int63n(1 << 40), EndMs: 1<<40 + rng.Int63n(1<<20),
		BytesInfra: size - peers, BytesPeers: peers,
		Outcome: uint8(rng.Intn(4)), PeersReturned: rng.Intn(40),
		Token: h.token(guid, oid, peers > 0 || rng.Intn(2) == 0),
	}
	if peers > 0 {
		e.FromPeers = []logpipe.EntryContribution{{GUID: guids[rng.Intn(len(guids))].String(), Bytes: peers}}
	}
	if rng.Intn(4) == 0 {
		e.Stream = &accounting.StreamStats{BitrateBps: 3_000_000, StartupDelayMs: rng.Int63n(2000),
			RebufferCount: rng.Int63n(3), DeadlineMisses: rng.Int63n(3), PiecesPlayed: 40, PiecesTotal: 48,
			EdgeRescueBytes: rng.Int63n(1 << 16)}
	}
	return e
}

// nodeAnalytics fetches the node's GET /v1/analytics document.
func nodeAnalytics(t *testing.T, n *Node) analysis.StreamingSummary {
	t.Helper()
	sum, err := fetchAnalytics(http.DefaultClient, n.StatusURL()+"/v1/analytics")
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// requireSameAnalytics compares two analytics documents: every count, byte
// total and sketch exactly, the efficiency sum (a float sum whose order
// differs) within 1e-9 relative.
func requireSameAnalytics(t *testing.T, got, want analysis.StreamingSummary) {
	t.Helper()
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }
	if !near(got.EffSum, want.EffSum) || !near(got.MeanPeerEfficiencyPct, want.MeanPeerEfficiencyPct) {
		t.Fatalf("effSum %v (mean %v%%), before the restart %v (%v%%)",
			got.EffSum, got.MeanPeerEfficiencyPct, want.EffSum, want.MeanPeerEfficiencyPct)
	}
	got.EffSum, got.MeanPeerEfficiencyPct = want.EffSum, want.MeanPeerEfficiencyPct
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("analytics after the restart:\n%+v\nbefore:\n%+v", got, want)
	}
}

// analyticsSeries returns the series the analytics fold drives.
func analyticsSeries(n *Node) map[string]float64 {
	snap := n.ControlPlane().Metrics().Snapshot()
	out := map[string]float64{}
	for k, v := range snap.Gauges {
		if strings.HasPrefix(k, "cp_offload_fraction") || k == "cp_active_guids_estimate" {
			out[k] = v
		}
	}
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, "cp_intra_as_") || strings.HasPrefix(k, "cp_inter_as_") || strings.HasPrefix(k, "cp_stream_") {
			out[k] = float64(v)
		}
	}
	return out
}
