// Package content implements the content model of NetSession: objects
// published by content providers, broken into fixed-size pieces whose
// SHA-256 hashes are generated and maintained by the edge servers, secure
// content IDs that are unique per version, bitfields tracking piece
// possession, and piece stores.
//
// Section 3.5 of the paper: "Edge servers generate and maintain secure IDs
// of content, which are unique to each version, as well as secure hashes of
// the pieces of each file. The IDs and the hashes are provided to the peers,
// so they can validate the content they have downloaded."
package content

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// DefaultPieceSize is the piece size used when a provider does not override
// it. NetSession, like BitTorrent, breaks objects "into fixed-size pieces
// that can be downloaded and their content hashes verified separately".
const DefaultPieceSize = 1 << 20 // 1 MiB

// CPCode identifies a specific account of a content provider, as recorded
// with every download in the paper's logs (§4.1).
type CPCode uint32

// ObjectID is the secure content ID of one version of one object. It is
// derived from the provider, URL and version, so two versions of the same
// URL never collide ("content can change over time, so it is important that
// different versions are not mixed up in the same download").
type ObjectID [32]byte

func (id ObjectID) String() string { return hex.EncodeToString(id[:8]) }

// Hex renders the ID's one text form: all 64 hex digits, as it appears in
// URLs, usage records, handoff snapshots and state files (String
// abbreviates for logs and is not reversible).
func (id ObjectID) Hex() string { return hex.EncodeToString(id[:]) }

// ParseObjectID parses the text form Hex produces.
func ParseObjectID(s string) (ObjectID, error) {
	var id ObjectID
	if len(s) != hex.EncodedLen(len(id)) {
		return id, fmt.Errorf("content: invalid object id %q", s)
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return ObjectID{}, fmt.Errorf("content: invalid object id %q", s)
	}
	return id, nil
}

// IsZero reports whether the ID is unset.
func (id ObjectID) IsZero() bool { return id == ObjectID{} }

// NewObjectID derives the secure content ID for a (provider, url, version)
// triple.
func NewObjectID(cp CPCode, url string, version uint32) ObjectID {
	h := sha256.New()
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(cp))
	binary.BigEndian.PutUint32(hdr[4:8], version)
	h.Write(hdr[:])
	h.Write([]byte(url))
	var id ObjectID
	h.Sum(id[:0])
	return id
}

// Object is the metadata of one distributable object version.
type Object struct {
	ID        ObjectID
	CP        CPCode
	URL       string // anonymized/hashed file name in the trace
	Version   uint32
	Size      int64
	PieceSize int
	// P2PEnabled is the per-file policy bit set by the content provider
	// ("Content providers can control on a per-file basis whether or not
	// peer-to-peer downloads are allowed", §5.1).
	P2PEnabled bool
}

// NewObject builds object metadata, assigning the secure content ID.
func NewObject(cp CPCode, url string, version uint32, size int64, pieceSize int, p2p bool) (*Object, error) {
	if size < 0 {
		return nil, fmt.Errorf("content: negative object size %d", size)
	}
	if pieceSize <= 0 {
		pieceSize = DefaultPieceSize
	}
	return &Object{
		ID:         NewObjectID(cp, url, version),
		CP:         cp,
		URL:        url,
		Version:    version,
		Size:       size,
		PieceSize:  pieceSize,
		P2PEnabled: p2p,
	}, nil
}

// NumPieces returns the number of pieces in the object. An empty object has
// zero pieces.
func (o *Object) NumPieces() int {
	if o.Size == 0 {
		return 0
	}
	return int((o.Size + int64(o.PieceSize) - 1) / int64(o.PieceSize))
}

// PieceLength returns the length in bytes of piece i; the final piece may be
// short.
func (o *Object) PieceLength(i int) int {
	n := o.NumPieces()
	if i < 0 || i >= n {
		return 0
	}
	if i == n-1 {
		if rem := int(o.Size % int64(o.PieceSize)); rem != 0 {
			return rem
		}
	}
	return o.PieceSize
}

// PieceOffset returns the byte offset of piece i within the object.
func (o *Object) PieceOffset(i int) int64 {
	return int64(i) * int64(o.PieceSize)
}
