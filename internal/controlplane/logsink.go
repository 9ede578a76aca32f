package controlplane

import (
	"fmt"
	"net/netip"

	"netsession/internal/accounting"
	"netsession/internal/analysis"
	"netsession/internal/content"
	"netsession/internal/id"
	"netsession/internal/logpipe"
	"netsession/internal/protocol"
)

// The log sink is where both report transports converge. A usage record is
// one logpipe.Entry whether it rode a batch to POST /v1/logs/batch or a
// protocol.UsageLog on the control connection; ingestEntry turns it into an
// accounting.DownloadRecord, the collector's verifier checks it, and — when a
// segment store is configured — it is spilled durably in the offline
// analysis schema. One schema, one converter, two transports.

// recordDownload verifies and books one download record. Verification
// failures are returned (and counted by the collector); store spill errors
// are returned but leave the collector state intact.
func (cp *ControlPlane) recordDownload(rec accounting.DownloadRecord) error {
	if err := cp.cfg.Collector.AddDownload(rec); err != nil {
		return err
	}
	// Every accepted record feeds the live analytics, whether or not a
	// durable store is configured; the streaming summarizer is the in-memory
	// half of the same pipeline.
	off := analysis.OfflineFromRecord(&rec, cp.geoLookup)
	cp.analytics.observe(&off)
	if st := cp.store; st != nil {
		if err := st.Append(off); err != nil {
			return fmt.Errorf("controlplane: spill download record: %w", err)
		}
	}
	return nil
}

// ingestEntry books one usage entry from either transport as a download
// record attributed to guid: the batch's uploader, or the control session
// the entry arrived on. Entry.GUID is never trusted. A returned error
// rejects just that record; an uploaded batch is still acknowledged.
func (cp *ControlPlane) ingestEntry(guid id.GUID, e *logpipe.Entry) error {
	cp.metrics.statsReports.Inc()
	if e.Kind != logpipe.EntryKindDownload {
		return fmt.Errorf("controlplane: unknown log entry kind %q", e.Kind)
	}
	obj, err := e.ObjectID()
	if err != nil {
		return err
	}
	rec := accounting.DownloadRecord{
		GUID:          guid,
		Object:        obj,
		URLHash:       e.URLHash,
		CP:            content.CPCode(e.CP),
		Size:          e.Size,
		StartMs:       e.StartMs,
		EndMs:         e.EndMs,
		BytesInfra:    e.BytesInfra,
		BytesPeers:    e.BytesPeers,
		Outcome:       protocol.Outcome(e.Outcome),
		PeersReturned: e.PeersReturned,
	}
	// Attribute the reporter's IP: a live control session is authoritative,
	// the declared IP in the entry is the offline fallback.
	if s := cp.lookupSession(guid); s != nil {
		rec.IP = s.rec.IP
	} else if ip, perr := netip.ParseAddr(e.IP); perr == nil {
		rec.IP = ip
	}
	for _, pc := range e.FromPeers {
		pg, gerr := id.ParseGUID(pc.GUID)
		if gerr != nil {
			continue // a malformed contributor must not sink the whole record
		}
		contrib := accounting.PeerContribution{GUID: pg, Bytes: pc.Bytes}
		if up := cp.lookupSession(pg); up != nil {
			contrib.IP = up.rec.IP
		}
		rec.FromPeers = append(rec.FromPeers, contrib)
	}
	if e.Stream != nil {
		st := *e.Stream
		rec.Stream = &st
	}
	// Attribute p2p enablement from the edge-issued token.
	if cp.cfg.Minter != nil && len(e.Token) > 0 {
		if claims, verr := cp.cfg.Minter.Verify(e.Token, 0); verr == nil && claims.Object == obj {
			rec.P2PEnabled = claims.P2P
		}
	}
	return cp.recordDownload(rec)
}
