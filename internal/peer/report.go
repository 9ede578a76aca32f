package peer

import (
	"time"

	"netsession/internal/accounting"
	"netsession/internal/content"
	"netsession/internal/id"
	"netsession/internal/logpipe"
	"netsession/internal/protocol"
	"netsession/internal/streaming"
)

// Result summarizes a finished download; its fields mirror the CN log
// record (§4.1).
type Result struct {
	Object        content.ObjectID
	Outcome       protocol.Outcome
	BytesInfra    int64
	BytesPeers    int64
	FromPeers     map[id.GUID]int64
	PeersReturned int
	Duration      time.Duration
	// Stream holds the playback outcome for deadline-driven downloads,
	// nil for bulk transfers.
	Stream *streaming.Metrics
}

// PeerEfficiency returns the fraction of bytes that came from peers.
func (r *Result) PeerEfficiency() float64 {
	t := r.BytesInfra + r.BytesPeers
	if t == 0 {
		return 0
	}
	return float64(r.BytesPeers) / float64(t)
}

func (d *Download) result() *Result {
	d.mu.Lock()
	defer d.mu.Unlock()
	fp := make(map[id.GUID]int64, len(d.fromPeers))
	for g, b := range d.fromPeers {
		fp[g] = b
	}
	return &Result{
		Object:        d.oid,
		Outcome:       d.outcome,
		BytesInfra:    d.bytesInfra,
		BytesPeers:    d.bytesPeers,
		FromPeers:     fp,
		PeersReturned: d.peersReturned,
		Duration:      d.now().Sub(d.start),
		Stream:        d.StreamMetrics(),
	}
}

// report uploads the usage record for billing (§3.4). With the log pipeline
// on, the entry goes to the durable spool and the uploader ships it in a
// batch; without it, or when the spool refuses it, the same entry rides the
// control connection as a UsageLog. Never both — the collector must see
// each download once.
func (d *Download) report() {
	d.mu.Lock()
	if d.reported {
		d.mu.Unlock()
		return
	}
	d.reported = true
	entry := d.logEntry(d.now().UnixMilli(), d.StreamMetrics())
	d.mu.Unlock()
	if d.c.spool != nil {
		err := d.c.spool.Append(entry)
		if err == nil {
			return
		}
		d.c.logf("log spool append failed, falling back to in-band report: %v", err)
	}
	raw, err := logpipe.EncodeEntry(entry)
	if err != nil {
		d.c.logf("usage record not sent: %v", err)
		return
	}
	d.c.control.send(&protocol.UsageLog{Entry: raw})
}

// logEntry renders the usage record in the log pipeline's wire schema.
func (d *Download) logEntry(endMs int64, m *streaming.Metrics) *logpipe.Entry {
	e := &logpipe.Entry{
		Kind:          logpipe.EntryKindDownload,
		GUID:          d.c.cfg.GUID.String(),
		IP:            d.c.cfg.DeclaredIP,
		Object:        d.oid.Hex(),
		URLHash:       d.manifest.Object.URL,
		CP:            uint32(d.manifest.Object.CP),
		Size:          d.manifest.Object.Size,
		StartMs:       d.start.UnixMilli(),
		EndMs:         endMs,
		BytesInfra:    d.bytesInfra,
		BytesPeers:    d.bytesPeers,
		Outcome:       uint8(d.outcome),
		PeersReturned: d.peersReturned,
		Token:         d.token,
	}
	for g, b := range d.fromPeers {
		e.FromPeers = append(e.FromPeers, logpipe.EntryContribution{GUID: g.String(), Bytes: b})
	}
	if m != nil {
		e.Stream = &accounting.StreamStats{
			BitrateBps:      m.BitrateBps,
			StartupDelayMs:  m.StartupDelayMs,
			RebufferCount:   m.RebufferCount,
			RebufferMs:      m.RebufferMs,
			DeadlineMisses:  m.DeadlineMisses,
			PiecesPlayed:    m.PiecesPlayed,
			PiecesTotal:     m.PiecesTotal,
			EdgeRescueBytes: m.EdgeRescueBytes,
		}
	}
	return e
}
