package controlplane

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"time"

	"netsession/internal/cluster"
	"netsession/internal/geo"
	"netsession/internal/logpipe"
	"netsession/internal/telemetry"
)

// Status is an operator snapshot of the control plane: "download and upload
// performance is constantly monitored" (§3.8). It is cheap to compute and
// safe to expose on an internal HTTP port.
type Status struct {
	// NodeID and CNAddrs identify this node to the cluster membership layer:
	// liveness probes read them to learn where the node's CNs listen.
	NodeID   string       `json:"nodeId,omitempty"`
	CNAddrs  []string     `json:"cnAddrs,omitempty"`
	Sessions int          `json:"sessions"`
	CNs      int          `json:"cns"`
	Regions  []RegionInfo `json:"regions"`
	// Members is this node's alive view — the seed-exchange payload. A
	// prober merges unknown members from it, so one live address is enough
	// to discover the whole cluster.
	Members []cluster.WireMember `json:"members,omitempty"`
	// AckSeq is the node's batch-acknowledgement sequence; peers that see it
	// advance past what they last pulled run an anti-entropy pull.
	AckSeq uint64 `json:"ackSeq,omitempty"`
	// AcceptedDownloads / RejectedReports summarize accounting health.
	AcceptedDownloads int `json:"acceptedDownloads"`
	RejectedReports   int `json:"rejectedReports"`
}

// RegionInfo is one region's directory footprint.
type RegionInfo struct {
	Region  string `json:"region"`
	Objects int    `json:"objects"`
}

// Status computes the current snapshot.
func (cp *ControlPlane) Status() Status {
	cp.mu.Lock()
	st := Status{NodeID: cp.cfg.NodeID, Sessions: len(cp.sessions), CNs: len(cp.cns)}
	for _, cn := range cp.cns {
		st.CNAddrs = append(st.CNAddrs, cn.Addr())
	}
	cp.mu.Unlock()
	for r := 0; r < geo.NumRegions; r++ {
		st.Regions = append(st.Regions, RegionInfo{
			Region:  geo.NetworkRegion(r).String(),
			Objects: cp.dns[r].dir.Objects(),
		})
	}
	st.AcceptedDownloads = cp.Collector().AcceptedDownloads()
	st.RejectedReports = cp.Collector().Rejected()
	for _, n := range cp.member.Members() {
		st.Members = append(st.Members, cluster.WireMember{
			ID: n.ID, StatusURL: n.StatusURL, CNAddrs: n.CNAddrs,
		})
	}
	st.AckSeq = cp.acks.Seq()
	return st
}

// StatusHandler serves the snapshot as JSON (mount wherever the operator's
// internal HTTP surface lives). A probe that announces its identity in the
// request headers is learned into the membership — the push half of seed
// exchange, which is how the cluster discovers a joining node.
func (cp *ControlPlane) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if proberID := r.Header.Get(cluster.HeaderProbeID); proberID != "" {
			prober := cluster.Node{ID: proberID, StatusURL: r.Header.Get(cluster.HeaderProbeURL)}
			if cns := r.Header.Get(cluster.HeaderProbeCNs); cns != "" {
				prober.CNAddrs = strings.Split(cns, ",")
			}
			cp.member.ObserveProber(prober)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(cp.Status())
	})
}

// statusServer is the control plane's operator HTTP surface: the status
// snapshot plus the standard telemetry endpoints (GET /metrics in Prometheus
// text format, GET /v1/telemetry as JSON). The CNs themselves speak only the
// binary control protocol, so this is where the control plane's metrics are
// scraped from.
type statusServer struct {
	httpSrv *http.Server
	ln      net.Listener
}

// serveStatus serves the operator surface on ln.
func (cp *ControlPlane) serveStatus(ln net.Listener) *statusServer {
	mux := http.NewServeMux()
	mux.Handle("GET /v1/status", cp.StatusHandler())
	mux.Handle("GET /v1/analytics", cp.AnalyticsHandler())
	mux.Handle("POST "+logpipe.BatchPath, cp.ingest.Handler())
	mux.Handle("POST "+DrainPath, cp.drainHandler())
	mux.Handle("POST "+HandoffPath, http.HandlerFunc(cp.serveHandoff))
	mux.Handle("POST "+LeavePath, http.HandlerFunc(cp.serveLeave))
	mux.Handle("GET "+logpipe.AcksPath, http.HandlerFunc(cp.acks.ServeSince))
	mux.Handle("GET "+logpipe.AcksSeenPath, http.HandlerFunc(cp.acks.ServeSeen))
	mux.Handle("POST "+logpipe.AcksPath, http.HandlerFunc(cp.acks.ServeMerge))
	telemetry.Mount(mux, cp.metrics.reg)
	s := &statusServer{
		httpSrv: &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second},
		ln:      ln,
	}
	go s.httpSrv.Serve(ln)
	return s
}

// Addr returns the bound address.
func (s *statusServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the status server down.
func (s *statusServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.httpSrv.Shutdown(ctx)
}

// Kill closes the listener and every active connection immediately — the
// SIGKILL analogue for a control-plane node. In-flight requests are cut off
// mid-response; nothing is flushed or drained. Failover tests use this so
// the surviving nodes see a node vanish, not say goodbye.
func (s *statusServer) Kill() { s.httpSrv.Close() }
