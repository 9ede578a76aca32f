package controlplane

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"netsession/internal/analysis"
	"netsession/internal/telemetry"
)

// Monitor is a monitoring node: "peers upload information about their
// operation and about problems, such as application crash reports, to these
// nodes. Processing their logs helps to monitor the network in real-time"
// (§3.6). It ingests reports over HTTP, keeps per-kind counters and a bounded
// ring of recent reports, scrapes the telemetry endpoints of the other
// components into a fleet-wide aggregate, and exposes a health summary.
type Monitor struct {
	mu         sync.Mutex
	counts     map[string]int
	recent     []Report
	maxRing    int // monitorRing; tests shrink it
	thresholds map[string]int
	alerts     []Alert

	reg             *telemetry.Registry
	reportsByKind   map[string]*telemetry.Counter
	reportsRejected *telemetry.Counter
	alertsRaised    *telemetry.Counter
	scrapes         *telemetry.Counter
	scrapeErrors    *telemetry.Counter

	scrapeMu         sync.Mutex
	scrapeTargets    map[string]string // component name -> base URL
	scraped          map[string]telemetry.Snapshot
	scrapedAnalytics map[string]analysis.StreamingSummary
	scrapedAt        map[string]time.Time
	// scrapeErrs / scrapeErrAt hold each target's last scrape failure. They
	// are cleared on success but survive stale eviction, so a dead CP node
	// stays visible in /v1/health with its error instead of silently
	// disappearing from the fleet view.
	scrapeErrs      map[string]string
	scrapeErrAt     map[string]time.Time
	scrapeTimeout   time.Duration // scrapeTimeoutDefault; tests shorten it
	staleAfter      time.Duration // evict after this long unscraped; 0: never, until StartScraping
	scrapeStop      func()
	scrapeEvictions *telemetry.Counter

	httpSrv *http.Server
	ln      net.Listener
}

// Alert is raised when a report kind crosses its configured threshold:
// "automated alerts are in place to notify network engineers in case of
// large-scale problems" (§3.8).
type Alert struct {
	Kind  string `json:"kind"`
	Count int    `json:"count"`
}

// Report is one operational report from a peer.
type Report struct {
	TimeMs int64  `json:"timeMs"`
	GUID   string `json:"guid"`
	Kind   string `json:"kind"` // e.g. "crash", "piece-corrupt", "nat-fail"
	Detail string `json:"detail"`
}

// maxReportBody bounds POST /v1/report bodies; reports are small JSON
// documents and anything larger is hostile or broken.
const maxReportBody = 16 << 10

const (
	// monitorRing is how many recent reports the monitor keeps.
	monitorRing = 1024
	// scrapeTimeoutDefault bounds one target's telemetry scrape.
	scrapeTimeoutDefault = 5 * time.Second
)

// NewMonitor creates a monitoring node keeping the monitorRing most recent
// reports.
func NewMonitor() *Monitor {
	reg := telemetry.NewRegistry()
	m := &Monitor{
		counts:        make(map[string]int),
		maxRing:       monitorRing,
		thresholds:    make(map[string]int),
		reg:           reg,
		reportsByKind: make(map[string]*telemetry.Counter),
		reportsRejected: reg.Counter("monitor_reports_rejected_total",
			"malformed or oversized report uploads rejected", nil),
		alertsRaised: reg.Counter("monitor_alerts_total", "alerts raised", nil),
		scrapes: reg.Counter("monitor_scrapes_total",
			"successful component telemetry scrapes", nil),
		scrapeErrors: reg.Counter("monitor_scrape_errors_total",
			"failed component telemetry scrapes", nil),
		scrapeTargets:    make(map[string]string),
		scraped:          make(map[string]telemetry.Snapshot),
		scrapedAnalytics: make(map[string]analysis.StreamingSummary),
		scrapedAt:        make(map[string]time.Time),
		scrapeErrs:       make(map[string]string),
		scrapeErrAt:      make(map[string]time.Time),
		scrapeTimeout:    scrapeTimeoutDefault,
		scrapeEvictions: reg.Counter("monitor_scrape_evictions_total",
			"components evicted from the fleet aggregate after going stale", nil),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/report", m.handleReport)
	mux.HandleFunc("GET /v1/health", m.handleHealth)
	mux.HandleFunc("GET /v1/analytics", m.handleAnalytics)
	telemetry.Mount(mux, reg)
	m.httpSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	return m
}

// Metrics exposes the monitor's own telemetry registry.
func (m *Monitor) Metrics() *telemetry.Registry { return m.reg }

// Start listens and serves in the background.
func (m *Monitor) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("controlplane: monitor listen: %w", err)
	}
	m.ln = ln
	go m.httpSrv.Serve(ln)
	return nil
}

// Addr returns the bound address.
func (m *Monitor) Addr() string {
	if m.ln == nil {
		return ""
	}
	return m.ln.Addr().String()
}

// Close shuts the monitor down.
func (m *Monitor) Close() error {
	m.scrapeMu.Lock()
	stop := m.scrapeStop
	m.scrapeStop = nil
	m.scrapeMu.Unlock()
	if stop != nil {
		stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return m.httpSrv.Shutdown(ctx)
}

// SetAlertThreshold raises an Alert once `kind` accumulates n reports.
func (m *Monitor) SetAlertThreshold(kind string, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.thresholds[kind] = n
}

// Alerts returns the raised alerts, oldest first.
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alert(nil), m.alerts...)
}

// Ingest records a report directly (in-process peers and the simulator).
func (m *Monitor) Ingest(r Report) {
	m.kindCounter(r.Kind).Inc()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts[r.Kind]++
	m.recent = append(m.recent, r)
	if len(m.recent) > m.maxRing {
		m.recent = m.recent[len(m.recent)-m.maxRing:]
	}
	if th, ok := m.thresholds[r.Kind]; ok && m.counts[r.Kind] == th {
		m.alerts = append(m.alerts, Alert{Kind: r.Kind, Count: m.counts[r.Kind]})
		m.alertsRaised.Inc()
	}
}

// kindCounter caches the per-kind report counter series.
func (m *Monitor) kindCounter(kind string) *telemetry.Counter {
	m.mu.Lock()
	c, ok := m.reportsByKind[kind]
	if !ok {
		c = m.reg.Counter("monitor_reports_total",
			"operational reports received, by kind", telemetry.Labels{"kind": kind})
		m.reportsByKind[kind] = c
	}
	m.mu.Unlock()
	return c
}

// Count returns how many reports of a kind arrived.
func (m *Monitor) Count(kind string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counts[kind]
}

// Recent returns a copy of the recent-report ring.
func (m *Monitor) Recent() []Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Report(nil), m.recent...)
}

// handleReport ingests one peer report. The body is size-bounded and must be
// a single well-formed JSON report with a non-empty kind; anything else is a
// 400 that is counted but never lands in the ring.
func (m *Monitor) handleReport(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxReportBody))
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		m.reportsRejected.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if strings.TrimSpace(rep.Kind) == "" {
		m.reportsRejected.Inc()
		http.Error(w, "report kind is required", http.StatusBadRequest)
		return
	}
	m.Ingest(rep)
	w.WriteHeader(http.StatusNoContent)
}

// SetScrapeTargets configures the component telemetry endpoints this monitor
// aggregates (name → base URL serving GET /v1/telemetry).
func (m *Monitor) SetScrapeTargets(targets map[string]string) {
	m.scrapeMu.Lock()
	defer m.scrapeMu.Unlock()
	m.scrapeTargets = make(map[string]string, len(targets))
	for k, v := range targets {
		m.scrapeTargets[k] = strings.TrimSuffix(v, "/")
	}
}

// ScrapeOnce fetches every configured target's /v1/telemetry snapshot — and,
// for targets that serve one, the /v1/analytics summary — in parallel, one
// slow target never delaying the others past its own timeout. Failures are
// soft: the previous snapshot for a target is kept until it goes stale, and
// the error counter advances.
func (m *Monitor) ScrapeOnce() {
	m.scrapeMu.Lock()
	targets := make(map[string]string, len(m.scrapeTargets))
	for k, v := range m.scrapeTargets {
		targets[k] = v
	}
	timeout := m.scrapeTimeout
	m.scrapeMu.Unlock()

	client := &http.Client{Timeout: timeout}
	var wg sync.WaitGroup
	for name, base := range targets {
		wg.Add(1)
		go func(name, base string) {
			defer wg.Done()
			snap, err := fetchSnapshot(client, base+"/v1/telemetry")
			if err != nil {
				m.scrapeErrors.Inc()
				m.scrapeMu.Lock()
				m.scrapeErrs[name] = err.Error()
				m.scrapeErrAt[name] = time.Now()
				m.scrapeMu.Unlock()
				return
			}
			// Analytics is optional per component: the control plane serves
			// it, edges and peers 404 — which is a skip, not an error.
			sum, aerr := fetchAnalytics(client, base+"/v1/analytics")
			m.scrapes.Inc()
			m.scrapeMu.Lock()
			m.scraped[name] = snap
			if aerr == nil {
				m.scrapedAnalytics[name] = sum
			}
			m.scrapedAt[name] = time.Now()
			delete(m.scrapeErrs, name)
			delete(m.scrapeErrAt, name)
			m.scrapeMu.Unlock()
		}(name, base)
	}
	wg.Wait()
	m.evictStale()
}

// evictStale drops components whose last successful scrape is older than the
// stale policy, counting each eviction.
func (m *Monitor) evictStale() {
	m.scrapeMu.Lock()
	defer m.scrapeMu.Unlock()
	if m.staleAfter <= 0 {
		return
	}
	now := time.Now()
	for name, at := range m.scrapedAt {
		if now.Sub(at) >= m.staleAfter {
			delete(m.scraped, name)
			delete(m.scrapedAnalytics, name)
			delete(m.scrapedAt, name)
			m.scrapeEvictions.Inc()
		}
	}
}

func fetchSnapshot(client *http.Client, url string) (telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	resp, err := client.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	err = json.NewDecoder(io.LimitReader(resp.Body, 4<<20)).Decode(&snap)
	return snap, err
}

// errNoAnalytics reports that a target does not expose a live-analytics
// endpoint; callers treat it as "skip", never as a scrape failure.
var errNoAnalytics = fmt.Errorf("target serves no analytics endpoint")

func fetchAnalytics(client *http.Client, url string) (analysis.StreamingSummary, error) {
	var sum analysis.StreamingSummary
	resp, err := client.Get(url)
	if err != nil {
		return sum, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return sum, errNoAnalytics
	}
	if resp.StatusCode != http.StatusOK {
		return sum, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	err = json.NewDecoder(io.LimitReader(resp.Body, 16<<20)).Decode(&sum)
	return sum, err
}

// StartScraping scrapes all targets every interval until the monitor closes
// or the returned stop function runs.
func (m *Monitor) StartScraping(interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	stop = func() { once.Do(func() { close(done) }) }
	m.scrapeMu.Lock()
	m.scrapeStop = stop
	if m.staleAfter <= 0 {
		// Default stale policy: a component that misses one full scrape
		// cycle drops out of the fleet aggregates.
		m.staleAfter = interval
	}
	m.scrapeMu.Unlock()
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				m.ScrapeOnce()
			}
		}
	}()
	return stop
}

// Aggregate merges the latest scraped snapshot of every component into one
// fleet view.
func (m *Monitor) Aggregate() telemetry.Snapshot {
	m.scrapeMu.Lock()
	defer m.scrapeMu.Unlock()
	agg := telemetry.Snapshot{}
	names := make([]string, 0, len(m.scraped))
	for name := range m.scraped {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		agg.Merge(m.scraped[name])
	}
	return agg
}

// FleetAnalytics merges the latest analytics summary scraped from every
// component that serves one (the control planes) into a single fleet view:
// counts and byte totals sum, GUID/URL sketches union so peers reporting
// through several CPs are counted once. The bool is false when no analytics
// have been scraped yet.
func (m *Monitor) FleetAnalytics() (analysis.StreamingSummary, bool) {
	m.scrapeMu.Lock()
	defer m.scrapeMu.Unlock()
	names := make([]string, 0, len(m.scrapedAnalytics))
	for name := range m.scrapedAnalytics {
		names = append(names, name)
	}
	if len(names) == 0 {
		return analysis.StreamingSummary{}, false
	}
	sort.Strings(names)
	// Merge into a zero summary rather than starting from the first entry:
	// Merge adds into maps in place, and the stored per-component documents
	// must stay untouched for the next call.
	var fleet analysis.StreamingSummary
	for _, name := range names {
		sum := m.scrapedAnalytics[name]
		// A malformed sketch from one CP must not take down the fleet view:
		// Merge skips that sketch, merges everything else and recomputes the
		// derived metrics, so the error carries nothing to act on here.
		_ = fleet.Merge(&sum)
	}
	return fleet, true
}

// handleAnalytics serves the merged fleet analytics on GET /v1/analytics —
// the same document shape each CP serves, so dashboards point at either.
func (m *Monitor) handleAnalytics(w http.ResponseWriter, _ *http.Request) {
	fleet, ok := m.FleetAnalytics()
	if !ok {
		http.Error(w, "no analytics scraped yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(fleet)
}

// componentHealth is one configured target's entry in the health summary. A
// healthy target carries its last scrape time; a failing one carries the
// last error and when it happened — a dead CP node shows up here even after
// stale eviction removed it from the fleet aggregates.
type componentHealth struct {
	LastScrape  time.Time `json:"lastScrape,omitempty"`
	Counters    int       `json:"counters,omitempty"`
	LastError   string    `json:"lastError,omitempty"`
	LastErrorAt time.Time `json:"lastErrorAt,omitempty"`
}

// healthSummary is the GET /v1/health document: the report counters the
// monitor ingested itself, plus the scraped fleet aggregate.
type healthSummary struct {
	Reports    map[string]int             `json:"reports"`
	Alerts     []Alert                    `json:"alerts,omitempty"`
	Components map[string]componentHealth `json:"components,omitempty"`
	Fleet      telemetry.Snapshot         `json:"fleet,omitempty"`
	Analytics  *analysis.StreamingSummary `json:"analytics,omitempty"`
}

func (m *Monitor) handleHealth(w http.ResponseWriter, _ *http.Request) {
	m.mu.Lock()
	sum := healthSummary{Reports: make(map[string]int, len(m.counts))}
	for k, v := range m.counts {
		sum.Reports[k] = v
	}
	sum.Alerts = append(sum.Alerts, m.alerts...)
	m.mu.Unlock()
	m.scrapeMu.Lock()
	if len(m.scraped) > 0 || len(m.scrapeErrs) > 0 {
		sum.Components = make(map[string]componentHealth, len(m.scraped)+len(m.scrapeErrs))
		for name, snap := range m.scraped {
			sum.Components[name] = componentHealth{
				LastScrape: m.scrapedAt[name],
				Counters:   len(snap.Counters),
			}
		}
		// Failing targets appear (or are annotated) with their last error;
		// a target can carry both a stale-but-kept snapshot and an error.
		for name, errStr := range m.scrapeErrs {
			ch := sum.Components[name]
			ch.LastError = errStr
			ch.LastErrorAt = m.scrapeErrAt[name]
			sum.Components[name] = ch
		}
	}
	m.scrapeMu.Unlock()
	sum.Fleet = m.Aggregate()
	if fleet, ok := m.FleetAnalytics(); ok {
		sum.Analytics = &fleet
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sum)
}
