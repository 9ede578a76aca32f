package content

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// PieceHash is the SHA-256 digest of one piece.
type PieceHash [32]byte

// HashPiece computes the digest of a piece's bytes.
func HashPiece(data []byte) PieceHash {
	return sha256.Sum256(data)
}

// Manifest carries the validation material an edge server hands to peers:
// the secure content ID plus the per-piece hashes. A peer that "cannot
// validate a file piece ... discards the piece and does not upload it to
// other peers" (§3.5).
type Manifest struct {
	Object Object
	Hashes []PieceHash
}

// BuildManifest reads the full object content from r and produces its
// manifest. The reader must supply exactly obj.Size bytes.
func BuildManifest(obj *Object, r io.Reader) (*Manifest, error) {
	m := &Manifest{Object: *obj, Hashes: make([]PieceHash, 0, obj.NumPieces())}
	buf := make([]byte, obj.PieceSize)
	var total int64
	for i := 0; i < obj.NumPieces(); i++ {
		n := obj.PieceLength(i)
		if _, err := io.ReadFull(r, buf[:n]); err != nil {
			return nil, fmt.Errorf("content: manifest read piece %d: %w", i, err)
		}
		total += int64(n)
		m.Hashes = append(m.Hashes, HashPiece(buf[:n]))
	}
	if total != obj.Size {
		return nil, fmt.Errorf("content: manifest covered %d bytes, object is %d", total, obj.Size)
	}
	return m, nil
}

// ErrCorrupt is wrapped by every verification failure: a piece whose index,
// length or hash disagrees with the manifest. A Store's Put returns it for
// a piece it refused, so callers tell a bad source from a local storage
// failure with errors.Is.
var ErrCorrupt = errors.New("content: piece failed verification")

// Verify checks a piece against the manifest. It returns an error wrapping
// ErrCorrupt when the index is out of range, the length is wrong, or the
// hash does not match.
func (m *Manifest) Verify(index int, data []byte) error {
	if index < 0 || index >= len(m.Hashes) {
		return fmt.Errorf("%w: piece index %d out of range [0,%d)", ErrCorrupt, index, len(m.Hashes))
	}
	if want := m.Object.PieceLength(index); len(data) != want {
		return fmt.Errorf("%w: piece %d has %d bytes, want %d", ErrCorrupt, index, len(data), want)
	}
	if HashPiece(data) != m.Hashes[index] {
		return fmt.Errorf("%w: piece %d hash mismatch", ErrCorrupt, index)
	}
	return nil
}

// SyntheticBody deterministically generates the bytes at a given offset of a
// synthetic object. Experiments and tests use synthetic bodies so that edge
// servers, peers and the simulator can all materialize identical content for
// an object without shipping real files around.
//
// The byte at offset o is id[o%32] ^ byte(o) ^ byte(o>>8) ^ byte(o>>16): a
// simple keyed stream, cheap, deterministic, and incompressible enough to
// exercise hashing honestly. Within an aligned 256-byte block the first two
// terms depend only on o%256 and the last two are constant, so whole blocks
// are one per-call template XORed with a per-block constant, eight bytes at
// a time; only an unaligned head and tail go byte by byte.
func SyntheticBody(id ObjectID, off int64, p []byte) {
	head := min(int(-off&255), len(p))
	syntheticBytes(id, off, p[:head])
	p, off = p[head:], off+int64(head)
	if len(p) >= 256 {
		var block [256]byte
		for j := range block {
			block[j] = id[j%32] ^ byte(j)
		}
		var tmpl [32]uint64
		for w := range tmpl {
			tmpl[w] = binary.LittleEndian.Uint64(block[8*w:])
		}
		for ; len(p) >= 256; p, off = p[256:], off+256 {
			c := uint64(byte(off>>8)^byte(off>>16)) * 0x0101010101010101
			blk := (*[256]byte)(p)
			for w := 0; w < 32; w += 4 {
				binary.LittleEndian.PutUint64(blk[8*w:], tmpl[w]^c)
				binary.LittleEndian.PutUint64(blk[8*w+8:], tmpl[w+1]^c)
				binary.LittleEndian.PutUint64(blk[8*w+16:], tmpl[w+2]^c)
				binary.LittleEndian.PutUint64(blk[8*w+24:], tmpl[w+3]^c)
			}
		}
	}
	syntheticBytes(id, off, p)
}

// syntheticBytes is SyntheticBody one byte at a time.
func syntheticBytes(id ObjectID, off int64, p []byte) {
	for i := range p {
		o := off + int64(i)
		p[i] = id[o%32] ^ byte(o) ^ byte(o>>8) ^ byte(o>>16)
	}
}

// SyntheticReader returns a reader producing size bytes of the synthetic
// body of the object.
func SyntheticReader(id ObjectID, size int64) io.Reader {
	return &synthReader{id: id, remaining: size}
}

type synthReader struct {
	id        ObjectID
	off       int64
	remaining int64
}

func (r *synthReader) Read(p []byte) (int, error) {
	if r.remaining == 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.remaining {
		p = p[:r.remaining]
	}
	SyntheticBody(r.id, r.off, p)
	r.off += int64(len(p))
	r.remaining -= int64(len(p))
	return len(p), nil
}

// SyntheticManifest builds the manifest of a synthetic object without
// allocating the whole body.
func SyntheticManifest(obj *Object) (*Manifest, error) {
	return BuildManifest(obj, SyntheticReader(obj.ID, obj.Size))
}
