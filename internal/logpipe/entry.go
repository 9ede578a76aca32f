package logpipe

import (
	"encoding/json"
	"fmt"

	"netsession/internal/accounting"
	"netsession/internal/analysis"
	"netsession/internal/content"
)

// Entry is the one wire schema of a client usage record: the per-download
// report of §4.1 as the peer knows it, before the control plane attributes
// geography. It travels on two transports, as a line of an uploaded batch
// and in-band as the body of a control-connection protocol.UsageLog, in the
// same encoding (EncodeEntry/DecodeEntry). Objects travel as the full 64-hex
// content ID so the CP can re-verify the report against the edge ledger, and
// the edge-issued authorization token rides along for the accounting checks
// of §3.5.
type Entry struct {
	Kind    string `json:"kind"` // "download" is the only kind today
	GUID    string `json:"guid"`
	IP      string `json:"ip,omitempty"` // the peer's declared IP
	Object  string `json:"object"`       // full hex content ID
	URLHash string `json:"urlHash"`
	CP      uint32 `json:"cp"`
	Size    int64  `json:"size"`

	StartMs int64 `json:"startMs"`
	EndMs   int64 `json:"endMs"`

	BytesInfra int64 `json:"bytesInfra"`
	BytesPeers int64 `json:"bytesPeers"`

	Outcome       uint8  `json:"outcome"`
	PeersReturned int    `json:"peersReturned"`
	Token         []byte `json:"token,omitempty"`

	FromPeers []EntryContribution `json:"fromPeers,omitempty"`

	// Stream is the playback sub-record of a deadline-driven streaming
	// download; absent for bulk transfers.
	Stream *accounting.StreamStats `json:"stream,omitempty"`
}

// EntryContribution attributes bytes to one serving peer.
type EntryContribution struct {
	GUID  string `json:"guid"`
	Bytes int64  `json:"bytes"`
}

// EntryKindDownload is the Entry.Kind of a per-download usage report.
const EntryKindDownload = "download"

// EncodeEntry renders an entry as one JSON line (without the newline): a
// spool segment line and a UsageLog body are these bytes.
func EncodeEntry(e *Entry) ([]byte, error) {
	line, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("logpipe: encode entry: %w", err)
	}
	return line, nil
}

// DecodeEntry parses one encoded entry. Lines beyond analysis.MaxLineBytes
// are refused before parsing, whichever transport delivered them.
func DecodeEntry(line []byte) (*Entry, error) {
	if len(line) > analysis.MaxLineBytes {
		return nil, fmt.Errorf("logpipe: entry of %d bytes exceeds %d", len(line), analysis.MaxLineBytes)
	}
	var e Entry
	if err := json.Unmarshal(line, &e); err != nil {
		return nil, fmt.Errorf("logpipe: decode entry: %w", err)
	}
	return &e, nil
}

// ObjectID parses the entry's full-length content ID.
func (e *Entry) ObjectID() (content.ObjectID, error) { return content.ParseObjectID(e.Object) }

// EncodeObjectID renders a content ID in the entry's full-length form.
func EncodeObjectID(oid content.ObjectID) string { return oid.Hex() }
