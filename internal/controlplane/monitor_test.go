package controlplane

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"netsession/internal/analysis"
	"netsession/internal/telemetry"
)

func startMonitor(t *testing.T) *Monitor {
	t.Helper()
	m := NewMonitor()
	if err := m.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func postReport(t *testing.T, m *Monitor, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post("http://"+m.Addr()+"/v1/report", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestMonitorRejectsMalformedReports(t *testing.T) {
	m := startMonitor(t)

	if resp := postReport(t, m, []byte(`{"kind":"crash","guid":"g"}`)); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("valid report: status %d", resp.StatusCode)
	}
	if resp := postReport(t, m, []byte(`{not json`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}
	if resp := postReport(t, m, []byte(`{"kind":"  ","guid":"g"}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("blank kind: status %d, want 400", resp.StatusCode)
	}
	// Oversized body: a detail string past maxReportBody.
	big := `{"kind":"crash","detail":"` + strings.Repeat("x", maxReportBody+1) + `"}`
	if resp := postReport(t, m, []byte(big)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: status %d, want 400", resp.StatusCode)
	}
	if got := m.Count("crash"); got != 1 {
		t.Errorf("crash count %d, want 1 (rejects must not land)", got)
	}

	snap := m.Metrics().Snapshot()
	if got := snap.Counters["monitor_reports_rejected_total"]; got != 3 {
		t.Errorf("rejected counter %d, want 3", got)
	}
}

func TestMonitorScrapeAndAggregate(t *testing.T) {
	m := startMonitor(t)

	// Two fake components, each with its own registry.
	mk := func(n int64) *httptest.Server {
		reg := telemetry.NewRegistry()
		reg.Counter("widget_total", "widgets", nil).Add(n)
		mux := http.NewServeMux()
		telemetry.Mount(mux, reg)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv
	}
	a, b := mk(3), mk(4)
	m.SetScrapeTargets(map[string]string{"a": a.URL, "b": b.URL, "down": "http://127.0.0.1:1"})
	m.ScrapeOnce()

	agg := m.Aggregate()
	if got := agg.Counters["widget_total"]; got != 7 {
		t.Errorf("aggregate widget_total=%d, want 7", got)
	}
	snap := m.Metrics().Snapshot()
	if snap.Counters["monitor_scrapes_total"] != 2 || snap.Counters["monitor_scrape_errors_total"] != 1 {
		t.Errorf("scrape counters: %+v", snap.Counters)
	}

	// The health summary carries the fleet aggregate.
	resp, err := http.Get("http://" + m.Addr() + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "widget_total") {
		t.Errorf("health summary missing fleet aggregate: %s", buf.String())
	}
}

// TestMonitorScrapeTimeout: a target that hangs past the per-target timeout
// counts as a scrape error and never blocks the healthy targets' snapshots.
func TestMonitorScrapeTimeout(t *testing.T) {
	m := startMonitor(t)

	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		<-release
	}))
	t.Cleanup(func() { close(release); slow.Close() })

	reg := telemetry.NewRegistry()
	reg.Counter("fast_total", "fast", nil).Inc()
	mux := http.NewServeMux()
	telemetry.Mount(mux, reg)
	fast := httptest.NewServer(mux)
	t.Cleanup(fast.Close)

	m.SetScrapeTargets(map[string]string{"slow": slow.URL, "fast": fast.URL})
	m.scrapeTimeout = 50 * time.Millisecond
	start := time.Now()
	m.ScrapeOnce()
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("ScrapeOnce blocked %v on a hung target", elapsed)
	}
	if got := m.Aggregate().Counters["fast_total"]; got != 1 {
		t.Errorf("healthy target not scraped alongside hung one: %d", got)
	}
	snap := m.Metrics().Snapshot()
	if snap.Counters["monitor_scrape_errors_total"] != 1 {
		t.Errorf("hung target not counted as scrape error: %+v", snap.Counters)
	}
}

// TestMonitorStaleEviction: a component that dies keeps its last snapshot
// only until the stale deadline; the next scrape cycle after that removes it
// from the fleet aggregate entirely.
func TestMonitorStaleEviction(t *testing.T) {
	m := startMonitor(t)
	reg := telemetry.NewRegistry()
	reg.Counter("dying_total", "", nil).Add(9)
	mux := http.NewServeMux()
	telemetry.Mount(mux, reg)
	srv := httptest.NewServer(mux)

	m.SetScrapeTargets(map[string]string{"dying": srv.URL})
	m.scrapeTimeout, m.staleAfter = time.Second, 50*time.Millisecond
	m.ScrapeOnce()
	if got := m.Aggregate().Counters["dying_total"]; got != 9 {
		t.Fatalf("initial scrape missing: %d", got)
	}

	srv.Close() // the component dies
	// Keep scraping until the stale snapshot crosses the 50ms deadline and
	// is evicted — bounded polling instead of a fixed sleep on the budget.
	waitUntil(t, 5*time.Second, func() bool {
		m.ScrapeOnce()
		return m.Metrics().Snapshot().Counters["monitor_scrape_evictions_total"] == 1
	}, "dead component never evicted (eviction not counted)")
	if got := m.Aggregate().Counters["dying_total"]; got != 0 {
		t.Errorf("dead component still in fleet aggregate: dying_total=%d", got)
	}
	// A live component scraped on the same cadence is not evicted.
	reg2 := telemetry.NewRegistry()
	reg2.Counter("alive_total", "", nil).Inc()
	mux2 := http.NewServeMux()
	telemetry.Mount(mux2, reg2)
	srv2 := httptest.NewServer(mux2)
	t.Cleanup(srv2.Close)
	m.SetScrapeTargets(map[string]string{"alive": srv2.URL})
	m.ScrapeOnce()
	if got := m.Aggregate().Counters["alive_total"]; got != 1 {
		t.Errorf("live component evicted: %d", got)
	}
}

// cpDocument is the analytics document of a CP that saw one EU-West
// download of 100 infra bytes and the given peer bytes per GUID.
func cpDocument(guids []string, peers int64) analysis.StreamingSummary {
	s := analysis.NewStreamingSummarizer(1)
	for _, g := range guids {
		s.Observe(&analysis.OfflineDownload{
			GUID: g, URLHash: "u1", Region: "EU-West",
			BytesInfra: 100, BytesPeers: peers, Outcome: "completed",
		})
	}
	return s.Snapshot()
}

// serveAnalytics starts a CP-like scrape target serving doc.
func serveAnalytics(t *testing.T, doc analysis.StreamingSummary) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	telemetry.Mount(mux, telemetry.NewRegistry())
	mux.HandleFunc("GET /v1/analytics", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(doc)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestMonitorFleetAnalyticsBadSketch: one CP serving a malformed GUID sketch
// costs the fleet view that CP's GUID population and nothing else — its
// tallies still merge and the derived metrics are recomputed, even when the
// bad document merges last.
func TestMonitorFleetAnalyticsBadSketch(t *testing.T) {
	m := startMonitor(t)
	good := cpDocument([]string{"g1", "g2"}, 300)
	bad := cpDocument([]string{"g3"}, 100)
	bad.GUIDSketch = []byte{1, 2, 3}
	m.SetScrapeTargets(map[string]string{
		"cp1": serveAnalytics(t, good).URL,
		"cp2": serveAnalytics(t, bad).URL, // lexically last
	})
	m.ScrapeOnce()

	fleet, ok := m.FleetAnalytics()
	if !ok {
		t.Fatal("no fleet analytics after scraping two CPs")
	}
	if fleet.Downloads != good.Downloads+bad.Downloads {
		t.Errorf("fleet downloads %d, want %d", fleet.Downloads, good.Downloads+bad.Downloads)
	}
	if fleet.BytesPeers != 700 || fleet.BytesAll != 1000 {
		t.Fatalf("fleet bytes (peers %d, all %d), want (700, 1000)", fleet.BytesPeers, fleet.BytesAll)
	}
	if want := 100 * float64(fleet.BytesPeers) / float64(fleet.BytesAll); fleet.OffloadPct != want {
		t.Errorf("fleet OffloadPct %v not recomputed from merged bytes (want %v)", fleet.OffloadPct, want)
	}
	if fleet.CompletionP2PPct != 0 || fleet.CompletionInfraPct != 100 || fleet.Countries != 1 {
		t.Errorf("derived metrics stale: completion %v/%v, countries %d",
			fleet.CompletionInfraPct, fleet.CompletionP2PPct, fleet.Countries)
	}
	// The good CP's GUIDs and both CPs' URL sketches still count.
	if est := int(fleet.ActiveGUIDs + 0.5); est != 2 {
		t.Errorf("fleet ActiveGUIDs %.2f, want ~2 (bad sketch skipped, good one kept)", fleet.ActiveGUIDs)
	}
	if est := int(fleet.DistinctURLs + 0.5); est != 1 {
		t.Errorf("fleet DistinctURLs %.2f, want ~1", fleet.DistinctURLs)
	}
}

// TestMonitorFleetAnalytics: analytics documents scraped from several CPs
// merge into one fleet view — tallies sum, GUID sketches union — and targets
// without the endpoint are skipped silently.
func TestMonitorFleetAnalytics(t *testing.T) {
	m := startMonitor(t)

	// "g2" reports through both CPs; the fleet must count it once.
	cp1 := serveAnalytics(t, cpDocument([]string{"g1", "g2"}, 300))
	cp2 := serveAnalytics(t, cpDocument([]string{"g2", "g3"}, 100))
	// An edge-like target: telemetry only, no analytics endpoint.
	edgeMux := http.NewServeMux()
	telemetry.Mount(edgeMux, telemetry.NewRegistry())
	edge := httptest.NewServer(edgeMux)
	t.Cleanup(edge.Close)

	m.SetScrapeTargets(map[string]string{"cp1": cp1.URL, "cp2": cp2.URL, "edge": edge.URL})
	m.ScrapeOnce()

	fleet, ok := m.FleetAnalytics()
	if !ok {
		t.Fatal("no fleet analytics after scraping two CPs")
	}
	if fleet.Downloads != 4 {
		t.Errorf("fleet downloads %d, want 4", fleet.Downloads)
	}
	if fleet.BytesPeers != 800 || fleet.BytesInfra != 400 {
		t.Errorf("fleet bytes (peers %d, infra %d), want (800, 400)", fleet.BytesPeers, fleet.BytesInfra)
	}
	if est := int(fleet.ActiveGUIDs + 0.5); est != 3 {
		t.Errorf("fleet ActiveGUIDs %.2f, want ~3 (sketch union, g2 deduped)", fleet.ActiveGUIDs)
	}
	if len(fleet.Regions) != 1 || fleet.Regions[0].Region != "EU-West" || fleet.Regions[0].Downloads != 4 {
		t.Errorf("fleet regions %+v", fleet.Regions)
	}
	if snap := m.Metrics().Snapshot(); snap.Counters["monitor_scrape_errors_total"] != 0 {
		t.Errorf("missing analytics endpoint counted as error: %+v", snap.Counters)
	}

	// The monitor re-serves the merged view on its own /v1/analytics.
	resp, err := http.Get("http://" + m.Addr() + "/v1/analytics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served analysis.StreamingSummary
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if served.Downloads != 4 || served.OffloadPct != fleet.OffloadPct {
		t.Errorf("served fleet analytics %+v diverges from FleetAnalytics", served)
	}
}

// TestMonitorHealthShowsDeadTarget: a scrape target that stops answering
// must stay visible on /v1/health with its last error and timestamp — a
// dead control-plane node is an operator-facing fact, not something to
// silently drop from the fleet view.
func TestMonitorHealthShowsDeadTarget(t *testing.T) {
	m := startMonitor(t)
	reg := telemetry.NewRegistry()
	reg.Counter("ok_total", "", nil).Inc()
	mux := http.NewServeMux()
	telemetry.Mount(mux, reg)
	alive := httptest.NewServer(mux)
	t.Cleanup(alive.Close)
	reg2 := telemetry.NewRegistry()
	mux2 := http.NewServeMux()
	telemetry.Mount(mux2, reg2)
	dead := httptest.NewServer(mux2)

	m.SetScrapeTargets(map[string]string{"alive": alive.URL, "dead": dead.URL})
	m.scrapeTimeout, m.staleAfter = time.Second, 50*time.Millisecond
	m.ScrapeOnce() // both healthy
	dead.Close()   // then one dies
	m.ScrapeOnce() // records the scrape error

	resp, err := http.Get("http://" + m.Addr() + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sum struct {
		Components map[string]struct {
			LastScrape  time.Time `json:"lastScrape"`
			LastError   string    `json:"lastError"`
			LastErrorAt time.Time `json:"lastErrorAt"`
		} `json:"components"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	dc, ok := sum.Components["dead"]
	if !ok {
		t.Fatalf("dead target missing from /v1/health components: %+v", sum.Components)
	}
	if dc.LastError == "" || dc.LastErrorAt.IsZero() {
		t.Errorf("dead target lacks error annotation: %+v", dc)
	}
	ac, ok := sum.Components["alive"]
	if !ok || ac.LastError != "" || ac.LastScrape.IsZero() {
		t.Errorf("alive target misreported: %+v (ok=%v)", ac, ok)
	}

	// Even after the stale snapshot is evicted from the aggregate, the
	// error annotation survives: the operator still sees why.
	waitUntil(t, 5*time.Second, func() bool {
		m.ScrapeOnce()
		return m.Metrics().Snapshot().Counters["monitor_scrape_evictions_total"] >= 1
	}, "stale dead-target snapshot never evicted")
	resp2, err := http.Get("http://" + m.Addr() + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	if dc, ok := sum.Components["dead"]; !ok || dc.LastError == "" {
		t.Errorf("dead target's error vanished after eviction: %+v (ok=%v)", dc, ok)
	}
}

func TestMonitorStartScrapingLoop(t *testing.T) {
	m := startMonitor(t)
	reg := telemetry.NewRegistry()
	reg.Counter("tick_total", "ticks", nil).Inc()
	mux := http.NewServeMux()
	telemetry.Mount(mux, reg)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	m.SetScrapeTargets(map[string]string{"c": srv.URL})
	stop := m.StartScraping(20 * time.Millisecond)
	defer stop()
	waitUntil(t, 5*time.Second, func() bool {
		return m.Aggregate().Counters["tick_total"] == 1
	}, "periodic scrape never delivered a snapshot")
}
