// Package accounting implements NetSession's usage accounting: the log
// record schemas of §4.1, CN-side collection of per-download usage reports,
// edge-verified filtering of forged reports (the accounting attacks of
// §3.5/§6.2, after Aditya et al., NSDI'12), and per-content-provider billing
// aggregation.
//
// Reliable accounting is design goal 3 of the system: "Content providers,
// who pay for the CDN's services, expect detailed logs that show the amount
// and the quality of the services provided."
package accounting

import (
	"net/netip"

	"netsession/internal/content"
	"netsession/internal/id"
	"netsession/internal/protocol"
)

// DownloadRecord is the per-download log entry the CN writes: "the GUID of
// the peer, the name and size of the file, the CP code ..., the time the
// download started and ended, and the number of bytes downloaded from the
// infrastructure and from peers" (§4.1). We additionally carry the fields
// the paper's own analyses must have used: the downloader's IP at download
// time (for geo/AS attribution), per-serving-peer byte counts (for the AS
// traffic matrix of §6.1), and the number of peers the control plane
// initially returned (Figure 6).
type DownloadRecord struct {
	GUID    id.GUID
	IP      netip.Addr
	Object  content.ObjectID
	URLHash string
	CP      content.CPCode
	Size    int64
	// P2PEnabled records whether the provider allowed peer-assisted
	// delivery for this file.
	P2PEnabled bool

	StartMs int64 // virtual or wall clock, unix milliseconds
	EndMs   int64

	BytesInfra int64
	BytesPeers int64

	Outcome       protocol.Outcome
	PeersReturned int

	// FromPeers attributes peer-delivered bytes to serving GUIDs.
	FromPeers []PeerContribution
	// Stream is the playback sub-record of a deadline-driven streaming
	// download (startup delay, rebuffers, deadline misses, edge rescues);
	// nil for bulk transfers.
	Stream *StreamStats
}

// StreamStats is the streaming outcome of one download: the startup delay,
// rebuffer and deadline-miss tallies of the playback clock, and the
// urgent-window bytes the edge had to rescue. It is the one stream
// sub-record of every schema — the client's logpipe.Entry, this record, and
// the offline analysis.OfflineDownload — so the JSON tags are the wire and
// segment format. All fields are plain sums/tallies so fleet aggregates
// merge exactly.
type StreamStats struct {
	BitrateBps      int64 `json:"bitrateBps"`
	StartupDelayMs  int64 `json:"startupDelayMs"`
	RebufferCount   int64 `json:"rebufferCount"`
	RebufferMs      int64 `json:"rebufferMs"`
	DeadlineMisses  int64 `json:"deadlineMisses"`
	PiecesPlayed    int64 `json:"piecesPlayed"`
	PiecesTotal     int64 `json:"piecesTotal"`
	EdgeRescueBytes int64 `json:"edgeRescueBytes"`
}

// PeerContribution is one serving peer's share of a download.
type PeerContribution struct {
	GUID  id.GUID
	IP    netip.Addr
	Bytes int64
}

// TotalBytes returns all content bytes received.
func (r *DownloadRecord) TotalBytes() int64 { return r.BytesInfra + r.BytesPeers }

// PeerEfficiency returns the fraction of bytes served by peers, "the key
// quantity of interest" of §5.1. Zero-byte downloads have zero efficiency.
func (r *DownloadRecord) PeerEfficiency() float64 {
	t := r.TotalBytes()
	if t == 0 {
		return 0
	}
	return float64(r.BytesPeers) / float64(t)
}

// DurationMs returns the download's wall time.
func (r *DownloadRecord) DurationMs() int64 { return r.EndMs - r.StartMs }

// SpeedBps returns the average download speed in bits per second across the
// download's entire length, the quantity plotted in Figure 4.
func (r *DownloadRecord) SpeedBps() float64 {
	d := r.DurationMs()
	if d <= 0 {
		return 0
	}
	return float64(r.TotalBytes()) * 8 * 1000 / float64(d)
}

// LoginRecord is the per-connection log entry: "when a peer opens a
// connection to the control plane, the CN records the peer's current IP
// address, its software version, and whether or not uploads are enabled"
// (§4.1). Secondary GUIDs were added for the clone study of §6.2.
type LoginRecord struct {
	TimeMs          int64
	GUID            id.GUID
	IP              netip.Addr
	SoftwareVersion string
	UploadsEnabled  bool
	Secondaries     [id.HistoryLen]id.Secondary
}

// RegistrationRecord is the DN-side log of a peer registering a local file
// copy, counted in Figure 5 to estimate available copies per file.
type RegistrationRecord struct {
	TimeMs int64
	GUID   id.GUID
	Object content.ObjectID
}

// Log is a set of records held in memory: a collector snapshot, or a
// simulated month's download and registration logs.
type Log struct {
	Downloads     []DownloadRecord
	Logins        []LoginRecord
	Registrations []RegistrationRecord
}

// Sink takes a month of records one at a time. A sink must not keep a
// record pointer past the call: a streamed source reuses the record.
type Sink interface {
	AddLogin(*LoginRecord)
	AddDownload(*DownloadRecord)
	AddRegistration(*RegistrationRecord)
}

// Replay hands the log's records to s in slice order: logins, downloads,
// registrations.
func (l *Log) Replay(s Sink) {
	for i := range l.Logins {
		s.AddLogin(&l.Logins[i])
	}
	for i := range l.Downloads {
		s.AddDownload(&l.Downloads[i])
	}
	for i := range l.Registrations {
		s.AddRegistration(&l.Registrations[i])
	}
}
