package peer

import (
	"time"

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

// report uploads the usage statistics record for billing (§3.4). With the
// log pipeline on, the record goes to the durable spool and the uploader
// ships it in a batch; otherwise it rides the control connection in-band.
// Never both — the collector must see each download once.
func (d *Download) report() {
	d.mu.Lock()
	if d.reported {
		d.mu.Unlock()
		return
	}
	d.reported = true
	endMs := d.now().UnixMilli()
	stream := d.StreamMetrics()
	var entry *logpipe.Entry
	var rep *protocol.StatsReport
	if d.c.spool != nil {
		entry = d.logEntry(endMs, stream)
	} else {
		rep = d.statsReport(endMs, stream)
	}
	d.mu.Unlock()
	if entry != nil {
		err := d.c.spool.Append(entry)
		if err == nil {
			return
		}
		d.c.logf("log spool append failed, falling back to in-band report: %v", err)
		d.mu.Lock()
		rep = d.statsReport(endMs, stream)
		d.mu.Unlock()
	}
	d.c.control.send(rep)
}

// statsReport renders the usage record as the in-band control message.
func (d *Download) statsReport(endMs int64, m *streaming.Metrics) *protocol.StatsReport {
	rep := &protocol.StatsReport{
		Object:        d.oid,
		URLHash:       d.manifest.Object.URL,
		CP:            uint32(d.manifest.Object.CP),
		Size:          uint64(d.manifest.Object.Size),
		StartUnixMs:   d.start.UnixMilli(),
		EndUnixMs:     endMs,
		BytesInfra:    uint64(d.bytesInfra),
		BytesPeers:    uint64(d.bytesPeers),
		Outcome:       d.outcome,
		PeersReturned: uint16(d.peersReturned),
		Token:         d.token,
	}
	for g, b := range d.fromPeers {
		rep.FromPeers = append(rep.FromPeers, protocol.PeerBytes{GUID: g, Bytes: uint64(b)})
	}
	if m != nil {
		rep.Stream = &protocol.StreamStats{
			BitrateBps:      uint64(m.BitrateBps),
			StartupDelayMs:  uint64(m.StartupDelayMs),
			RebufferCount:   uint32(m.RebufferCount),
			RebufferMs:      uint64(m.RebufferMs),
			DeadlineMisses:  uint32(m.DeadlineMisses),
			PiecesPlayed:    uint32(m.PiecesPlayed),
			PiecesTotal:     uint32(m.PiecesTotal),
			EdgeRescueBytes: uint64(m.EdgeRescueBytes),
		}
	}
	return rep
}

// logEntry renders the usage record in the log pipeline's wire schema.
func (d *Download) logEntry(endMs int64, m *streaming.Metrics) *logpipe.Entry {
	e := &logpipe.Entry{
		Kind:          logpipe.EntryKindDownload,
		GUID:          d.c.cfg.GUID.String(),
		IP:            d.c.cfg.DeclaredIP,
		Object:        logpipe.EncodeObjectID(d.oid),
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
		e.Stream = &logpipe.EntryStream{
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
