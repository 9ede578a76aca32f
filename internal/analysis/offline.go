package analysis

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"strings"

	"netsession/internal/accounting"
	"netsession/internal/geo"
)

// The offline path analyzes exported JSON-lines logs without the generating
// atlas: every record carries its own geolocation fields, the way the
// paper's anonymized data set bundled EdgeScape annotations (§4.1). This is
// what `netsession-sim -out` writes and `netsession-analyze` reads.

// OfflineDownload is one exported download record.
type OfflineDownload struct {
	GUID       string                `json:"guid"`
	IP         string                `json:"ip"`
	Country    string                `json:"country"`
	ASN        uint32                `json:"asn"`
	Region     string                `json:"region,omitempty"`
	Object     string                `json:"object"`
	URLHash    string                `json:"urlHash"`
	CP         uint32                `json:"cp"`
	Size       int64                 `json:"size"`
	P2PEnabled bool                  `json:"p2pEnabled"`
	StartMs    int64                 `json:"startMs"`
	EndMs      int64                 `json:"endMs"`
	BytesInfra int64                 `json:"bytesInfra"`
	BytesPeers int64                 `json:"bytesPeers"`
	Outcome    string                `json:"outcome"`
	Peers      int                   `json:"peersReturned"`
	FromPeers  []OfflineContribution `json:"fromPeers,omitempty"`
	// Stream is the streaming sub-record of a deadline-driven download, the
	// same one whether the record came from a live peer's report or the
	// simulator, so streamed and simulated logs are indistinguishable to
	// every analysis below.
	Stream *accounting.StreamStats `json:"stream,omitempty"`
}

// OfflineContribution attributes bytes to one serving peer.
type OfflineContribution struct {
	GUID    string `json:"guid"`
	Country string `json:"country"`
	ASN     uint32 `json:"asn"`
	Region  string `json:"region,omitempty"`
	Bytes   int64  `json:"bytes"`
}

// GeoTag is the geolocation annotation attached to a logged IP: the
// EdgeScape-style fields the paper's anonymized data set bundles with every
// record (§4.1). Region is the control plane's network region name; it is
// carried in the record because it cannot be derived from the country alone
// (large countries span several regions) and the offline analyses must not
// need the generating atlas.
type GeoTag struct {
	Country string
	ASN     uint32
	Region  string
}

// GeoLookup annotates an IP; it may return a zero tag for unknown addresses.
type GeoLookup func(ip netip.Addr) GeoTag

// ScapeLookup annotates IPs from an EdgeScape: country, AS, and the control
// plane's network region. The control plane, the simulator's exporter and
// the batch report all tag records through it, so the three log sources
// carry the same annotation.
func ScapeLookup(scape *geo.EdgeScape) GeoLookup {
	return func(ip netip.Addr) GeoTag {
		rec, ok := scape.Lookup(ip)
		if !ok {
			return GeoTag{}
		}
		return tagOf(rec)
	}
}

// tagOf annotates a resolved IP.
func tagOf(rec geo.Record) GeoTag {
	return GeoTag{Country: string(rec.Country), ASN: uint32(rec.ASN), Region: geo.RegionOf(rec).String()}
}

// OfflineFromRecord converts one accepted accounting record into the
// self-contained offline schema, annotating geography through lookup (nil
// lookup leaves Country/ASN/Region zero). The simulator's log exporter and
// the control plane's segment store both go through this, so live-cluster and
// simulated segment files are byte-compatible inputs to the analyses.
func OfflineFromRecord(d *accounting.DownloadRecord, lookup GeoLookup) OfflineDownload {
	if lookup == nil {
		lookup = func(netip.Addr) GeoTag { return GeoTag{} }
	}
	tag := lookup(d.IP)
	out := OfflineDownload{
		GUID: d.GUID.String(), IP: d.IP.String(),
		Country: tag.Country, ASN: tag.ASN, Region: tag.Region,
		Object:  d.Object.String(),
		URLHash: d.URLHash, CP: uint32(d.CP), Size: d.Size,
		P2PEnabled: d.P2PEnabled, StartMs: d.StartMs, EndMs: d.EndMs,
		BytesInfra: d.BytesInfra, BytesPeers: d.BytesPeers,
		Outcome: d.Outcome.String(), Peers: d.PeersReturned,
	}
	for _, pc := range d.FromPeers {
		pt := lookup(pc.IP)
		out.FromPeers = append(out.FromPeers, OfflineContribution{
			GUID: pc.GUID.String(), Country: pt.Country, ASN: pt.ASN,
			Region: pt.Region, Bytes: pc.Bytes,
		})
	}
	if d.Stream != nil {
		st := *d.Stream
		out.Stream = &st
	}
	return out
}

// MaxLineBytes bounds one JSON-lines record on every reader of records:
// ScanDownloadsJSONL here, and the segment reader, batch ingest and
// usage-entry decoder of the log pipeline. Hostile or corrupt input must
// not make a reader allocate absurd buffers, and a record one reader
// accepts must not be refused by another.
const MaxLineBytes = 4 << 20

// ScanDownloadsJSONL streams an exported downloads file through fn one
// record at a time — the jsonl equivalent of the segment store's streaming
// readers, so a multi-gigabyte export analyzes without materializing.
// Returning an error from fn stops the scan.
func ScanDownloadsJSONL(r io.Reader, fn func(*OfflineDownload) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), MaxLineBytes)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var d OfflineDownload
		if err := DecodeDownload(sc.Bytes(), &d); err != nil {
			return fmt.Errorf("analysis: downloads line %d: %w", line, err)
		}
		if err := fn(&d); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("analysis: downloads line %d: %w", line+1, err)
	}
	return nil
}

// OfflineSummary is the standalone trace analysis: the subset of the
// paper's quantities computable from the download log alone.
type OfflineSummary struct {
	Downloads     int
	DistinctGUIDs int
	DistinctURLs  int
	Countries     int
	ASes          int

	CompletionInfraPct float64
	CompletionP2PPct   float64
	AbortInfraPct      float64
	AbortP2PPct        float64

	PctBytesP2PFiles           float64
	MeanPeerEfficiencyPct      float64
	AggregatePeerEfficiencyPct float64

	MedianSpeedEdgeMbps float64
	MedianSpeedP2PMbps  float64

	IntraASPct     float64
	HeavyASes      int
	HeavySharePct  float64
	TopObjectCount int
	ZipfExponent   float64

	// Streaming-delivery aggregates over records carrying a stream
	// sub-record; all zero when the log has no streams.
	StreamingDownloads    int
	StreamStartupMeanMs   float64
	StreamRebufferEvents  int64
	StreamRebufferMs      int64
	StreamDeadlineMissPct float64 // misses per played piece
	StreamEdgeRescueBytes int64
}

// SummarizeOffline computes the summary of a fully materialized log set.
func SummarizeOffline(dls []OfflineDownload) OfflineSummary {
	t := NewTally()
	for i := range dls {
		t.Add(&dls[i])
	}
	return t.Summary()
}

// Render prints the summary as text.
func (s OfflineSummary) Render() string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	w("downloads: %d by %d GUIDs over %d objects (%d countries, %d ASes)",
		s.Downloads, s.DistinctGUIDs, s.DistinctURLs, s.Countries, s.ASes)
	w("completion: infra-only %.1f%%, peer-assisted %.1f%% (paper: 94/92)",
		s.CompletionInfraPct, s.CompletionP2PPct)
	w("aborted:    infra-only %.1f%%, peer-assisted %.1f%% (paper: 3/8)",
		s.AbortInfraPct, s.AbortP2PPct)
	w("p2p-enabled files carry %.1f%% of bytes (paper: 57.4%%)", s.PctBytesP2PFiles)
	w("peer efficiency: mean %.1f%%, byte-weighted %.1f%% (paper mean: 71.4%%)",
		s.MeanPeerEfficiencyPct, s.AggregatePeerEfficiencyPct)
	w("median speed: edge-only %.2f Mbps, >50%%-p2p %.2f Mbps", s.MedianSpeedEdgeMbps, s.MedianSpeedP2PMbps)
	w("intra-AS p2p share %.1f%%; heavy uploaders: %d ASes carry %.0f%% of inter-AS bytes",
		s.IntraASPct, s.HeavyASes, s.HeavySharePct)
	w("popularity: top object %d downloads, fitted Zipf exponent %.2f",
		s.TopObjectCount, s.ZipfExponent)
	if s.StreamingDownloads > 0 {
		w("streaming: %d sessions, mean startup %.0fms, %d rebuffers (%dms paused), "+
			"deadline misses %.2f%% of played pieces, edge rescued %d urgent bytes",
			s.StreamingDownloads, s.StreamStartupMeanMs, s.StreamRebufferEvents,
			s.StreamRebufferMs, s.StreamDeadlineMissPct, s.StreamEdgeRescueBytes)
	}
	return b.String()
}
