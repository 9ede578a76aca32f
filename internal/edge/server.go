package edge

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"netsession/internal/content"
	"netsession/internal/faults"
	"netsession/internal/id"
	"netsession/internal/telemetry"
)

// ClientConfig is the fleet's client policy. It reaches peers on one channel:
// the control plane answers every login with a ConfigUpdate built from it.
// The edge reads only TokenTTLSec, the lifetime of the tokens it mints; the
// per-file policy (the p2p flag and the search token) travels on authorize
// (§3.5).
type ClientConfig struct {
	// MaxUploadConns is the global cap on simultaneous upload connections.
	MaxUploadConns int
	// PerObjectUploadCap bounds uploads of one object by one peer (§3.9).
	PerObjectUploadCap int
	// UploadRateBps caps aggregate upload bandwidth in bits per second.
	UploadRateBps int64
	// CacheTTLSec is how long completed downloads remain shareable.
	CacheTTLSec int
	// TokenTTLSec is the authorization token lifetime.
	TokenTTLSec int
	// TargetVersion is the client software version the fleet should run;
	// clients below it self-upgrade (§3.8).
	TargetVersion string
}

// DefaultClientConfig returns production-like client policy.
func DefaultClientConfig() ClientConfig {
	return ClientConfig{
		MaxUploadConns:     8,
		PerObjectUploadCap: 50,
		UploadRateBps:      0, // unlimited; peers self-throttle on busy links
		CacheTTLSec:        7 * 24 * 3600,
		TokenTTLSec:        24 * 3600,
	}
}

// Server is one edge server: HTTP content delivery plus the authorization,
// manifest and verification endpoints.
type Server struct {
	catalog *Catalog
	minter  *TokenMinter
	ledger  *Ledger
	cfg     ClientConfig
	metrics *serverMetrics

	httpSrv *http.Server
	ln      net.Listener
}

// serverMetrics holds the edge server's pre-resolved metric handles so hot
// request paths never touch the registry map.
type serverMetrics struct {
	reg         *telemetry.Registry
	bytesServed *telemetry.Counter
	authRejects *telemetry.Counter
	requests    map[string]*telemetry.Counter
	latency     map[string]*telemetry.Histogram
}

func newServerMetrics(reg *telemetry.Registry) *serverMetrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	m := &serverMetrics{
		reg: reg,
		bytesServed: reg.Counter("edge_bytes_served_total",
			"content bytes written to clients", nil),
		authRejects: reg.Counter("edge_auth_rejects_total",
			"requests rejected for invalid or missing authorization", nil),
		requests: make(map[string]*telemetry.Counter),
		latency:  make(map[string]*telemetry.Histogram),
	}
	for _, ep := range []string{"manifest", "data", "authorize", "verify"} {
		m.requests[ep] = reg.Counter("edge_requests_total",
			"HTTP requests served, by endpoint", telemetry.Labels{"endpoint": ep})
		m.latency[ep] = reg.Histogram("edge_request_duration_ms",
			"request latency in milliseconds, by endpoint",
			telemetry.DurationBucketsMs, telemetry.Labels{"endpoint": ep})
	}
	return m
}

// instrument wraps a handler with request counting and latency observation.
func (m *serverMetrics) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	c, lat := m.requests[endpoint], m.latency[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		c.Inc()
		h(w, r)
		lat.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}
}

// NewServer assembles an edge server. The catalog, minter and ledger may be
// shared across several servers to model one edge tier.
func NewServer(catalog *Catalog, minter *TokenMinter, ledger *Ledger, cfg ClientConfig) *Server {
	s := &Server{
		catalog: catalog, minter: minter, ledger: ledger, cfg: cfg,
		metrics: newServerMetrics(nil),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/objects/{oid}/manifest", s.metrics.instrument("manifest", s.handleManifest))
	mux.HandleFunc("GET /v1/objects/{oid}/data", s.metrics.instrument("data", s.handleData))
	mux.HandleFunc("POST /v1/authorize", s.metrics.instrument("authorize", s.handleAuthorize))
	mux.HandleFunc("GET /v1/verify", s.metrics.instrument("verify", s.handleVerify))
	telemetry.Mount(mux, s.metrics.reg)
	s.httpSrv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	return s
}

// Metrics exposes the server's telemetry registry (also served on
// GET /metrics and GET /v1/telemetry).
func (s *Server) Metrics() *telemetry.Registry { return s.metrics.reg }

// UseFaults wraps the server's handler with a fault-injection middleware
// (chaos testing: a flapping or erroring edge that clients must ride out,
// §3.3). Call before Start; a nil injector is a no-op.
func (s *Server) UseFaults(inj *faults.Injector) {
	s.httpSrv.Handler = inj.Middleware(s.httpSrv.Handler)
}

// Start listens on addr ("127.0.0.1:0" for tests) and serves in the
// background.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("edge: listen: %w", err)
	}
	s.ln = ln
	go s.httpSrv.Serve(ln)
	return nil
}

// Addr returns the bound address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down: a short graceful drain for in-flight
// requests, then a forced close. The forced close matters — a keep-alive
// connection that never went idle (e.g. one a client dialed and parked)
// stalls Shutdown past its deadline and would otherwise keep being served
// after Close returns.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	s.httpSrv.Close()
	return err
}

// Ledger exposes the served-bytes ledger for in-process control planes.
func (s *Server) Ledger() *Ledger { return s.ledger }

// Catalog exposes the published catalog.
func (s *Server) Catalog() *Catalog { return s.catalog }

// manifestJSON is the manifest wire form.
type manifestJSON struct {
	Object   objectJSON `json:"object"`
	HashesHx []string   `json:"pieceHashes"`
}

type objectJSON struct {
	ID         string `json:"id"`
	CP         uint32 `json:"cp"`
	URL        string `json:"url"`
	Version    uint32 `json:"version"`
	Size       int64  `json:"size"`
	PieceSize  int    `json:"pieceSize"`
	P2PEnabled bool   `json:"p2pEnabled"`
}

func toObjectJSON(o *content.Object) objectJSON {
	return objectJSON{
		ID: o.ID.Hex(), CP: uint32(o.CP), URL: o.URL, Version: o.Version,
		Size: o.Size, PieceSize: o.PieceSize, P2PEnabled: o.P2PEnabled,
	}
}

func fromObjectJSON(j objectJSON) (*content.Object, error) {
	oid, err := content.ParseObjectID(j.ID)
	if err != nil {
		return nil, err
	}
	return &content.Object{
		ID: oid, CP: content.CPCode(j.CP), URL: j.URL, Version: j.Version,
		Size: j.Size, PieceSize: j.PieceSize, P2PEnabled: j.P2PEnabled,
	}, nil
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	oid, err := content.ParseObjectID(r.PathValue("oid"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m, ok := s.catalog.Manifest(oid)
	if !ok {
		http.NotFound(w, r)
		return
	}
	out := manifestJSON{Object: toObjectJSON(&m.Object)}
	for _, h := range m.Hashes {
		out.HashesHx = append(out.HashesHx, hex.EncodeToString(h[:]))
	}
	writeJSON(w, out)
}

// handleData serves object bytes with HTTP Range support; NetSession
// downloads from edge servers over "the standard HTTP (or HTTPS) protocol"
// (§3.4). A valid token query parameter attributes the served bytes in the
// ledger.
func (s *Server) handleData(w http.ResponseWriter, r *http.Request) {
	oid, err := content.ParseObjectID(r.PathValue("oid"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	m, ok := s.catalog.Manifest(oid)
	if !ok {
		http.NotFound(w, r)
		return
	}
	var claimGUID id.GUID
	haveClaim := false
	if tok := r.URL.Query().Get("token"); tok != "" {
		raw, err := DecodeToken(tok)
		if err != nil {
			s.metrics.authRejects.Inc()
			http.Error(w, err.Error(), http.StatusUnauthorized)
			return
		}
		claims, err := s.minter.Verify(raw, time.Now().UnixMilli())
		if err != nil || claims.Object != oid {
			s.metrics.authRejects.Inc()
			http.Error(w, "invalid token", http.StatusUnauthorized)
			return
		}
		claimGUID = claims.GUID
		haveClaim = true
	}
	size := m.Object.Size
	start, length := int64(0), size
	status := http.StatusOK
	h := w.Header()
	if rng := r.Header.Get("Range"); rng != "" {
		start, length, err = parseRange(rng, size)
		if err != nil {
			http.Error(w, err.Error(), http.StatusRequestedRangeNotSatisfiable)
			return
		}
		h.Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", start, start+length-1, size))
		status = http.StatusPartialContent
	}
	// Headers take effect only before WriteHeader; a known Content-Length
	// also keeps the body from going out chunked.
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.FormatInt(length, 10))
	w.WriteHeader(status)
	buf := make([]byte, min(length, 64<<10))
	var sent int64
	for sent < length {
		n := min(length-sent, int64(len(buf)))
		content.SyntheticBody(oid, start+sent, buf[:n])
		wn, err := w.Write(buf[:n])
		sent += int64(wn)
		if err != nil {
			break
		}
	}
	s.metrics.bytesServed.Add(sent)
	if haveClaim {
		s.ledger.RecordServed(claimGUID, oid, sent)
	}
}

// parseRange parses a single-range "bytes=a-b" header.
func parseRange(h string, size int64) (start, length int64, err error) {
	spec, ok := strings.CutPrefix(h, "bytes=")
	if !ok || strings.Contains(spec, ",") {
		return 0, 0, fmt.Errorf("edge: unsupported range %q", h)
	}
	a, b, ok := strings.Cut(spec, "-")
	if !ok {
		return 0, 0, fmt.Errorf("edge: malformed range %q", h)
	}
	start, err = strconv.ParseInt(a, 10, 64)
	if err != nil || start < 0 || start >= size {
		return 0, 0, fmt.Errorf("edge: range start out of bounds in %q", h)
	}
	end := size - 1
	if b != "" {
		end, err = strconv.ParseInt(b, 10, 64)
		if err != nil || end < start {
			return 0, 0, fmt.Errorf("edge: range end out of bounds in %q", h)
		}
		if end >= size {
			end = size - 1
		}
	}
	return start, end - start + 1, nil
}

// authorizeRequest is the POST /v1/authorize body.
type authorizeRequest struct {
	GUID   string `json:"guid"`
	Object string `json:"object"`
}

// authorizeResponse carries the token and the per-file policy decision ("a
// policy defined by the content provider is used to decide whether a
// particular file may be downloaded and uploaded", §3.5).
type authorizeResponse struct {
	Token  string     `json:"token"`
	P2P    bool       `json:"p2p"`
	Object objectJSON `json:"object"`
}

func (s *Server) handleAuthorize(w http.ResponseWriter, r *http.Request) {
	var req authorizeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4096)).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	g, err := id.ParseGUID(req.GUID)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	oid, err := content.ParseObjectID(req.Object)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	obj, ok := s.catalog.Object(oid)
	if !ok {
		http.NotFound(w, r)
		return
	}
	claims := Claims{
		GUID: g, Object: oid,
		ExpiresMs: time.Now().UnixMilli() + int64(s.cfg.TokenTTLSec)*1000,
		P2P:       obj.P2PEnabled,
	}
	s.ledger.RecordAuthorization(g, oid)
	writeJSON(w, authorizeResponse{
		Token:  EncodeToken(s.minter.Mint(claims)),
		P2P:    obj.P2PEnabled,
		Object: toObjectJSON(obj),
	})
}

// verifyResponse is what the control plane fetches to cross-check client
// usage reports.
type verifyResponse struct {
	Authorized  bool  `json:"authorized"`
	ServedBytes int64 `json:"servedBytes"`
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	g, err := id.ParseGUID(r.URL.Query().Get("guid"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	oid, err := content.ParseObjectID(r.URL.Query().Get("object"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, verifyResponse{
		Authorized:  s.ledger.Authorized(g, oid),
		ServedBytes: s.ledger.Served(g, oid),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Response already committed; nothing safe to do but drop it.
		return
	}
}
