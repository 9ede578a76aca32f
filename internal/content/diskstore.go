package content

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"netsession/internal/fsutil"
	"netsession/internal/telemetry"
)

// DiskStore is the crash-safe piece store of a long-lived installation: one
// file per verified piece, written temp-file + fsync + rename so a SIGKILL
// or power loss never leaves a torn piece visible, plus a persisted manifest
// per object so a restart can re-verify everything it finds on disk. The
// paper's NetSession Interface survives restarts with its state intact
// (§3.2, §6.2); DiskStore is the content half of that survival, and the
// startup recovery scan is what makes it trustworthy — every piece is
// re-hashed against the stored manifest and anything corrupt or truncated is
// quarantined rather than served or resumed from.
type DiskStore struct {
	objectsDir string
	quarDir    string

	corrupt *telemetry.Counter

	mu       sync.Mutex
	objs     map[ObjectID]*diskObject
	recovery RecoveryStats
}

type diskObject struct {
	m    *Manifest
	have *Bitfield
	dir  string
}

// DiskStoreOptions tunes OpenDiskStore.
type DiskStoreOptions struct {
	// Telemetry receives the store's counters (store_recovery_corrupt_total,
	// registered eagerly); nil creates a private registry.
	Telemetry *telemetry.Registry
}

// RecoveryStats summarizes the startup recovery scan.
type RecoveryStats struct {
	// Objects is how many objects were recovered with a valid manifest.
	Objects int
	// Pieces is how many stored pieces re-verified against their manifest.
	Pieces int
	// CorruptPieces is how many piece files failed re-verification
	// (flipped bits, truncation) and were quarantined.
	CorruptPieces int
	// QuarantinedObjects is how many whole object directories were
	// quarantined for an unreadable or inconsistent manifest.
	QuarantinedObjects int
}

const (
	diskManifestName = "manifest.json"
	pieceSuffix      = ".piece"
)

// diskManifest is the JSON form of a persisted manifest. The object ID is
// not stored: it is re-derived from (cp, url, version) on load and checked
// against the directory name, so a tampered or misplaced manifest cannot
// smuggle pieces into the wrong object.
type diskManifest struct {
	CP         uint32   `json:"cp"`
	URL        string   `json:"url"`
	Version    uint32   `json:"version"`
	Size       int64    `json:"size"`
	PieceSize  int      `json:"pieceSize"`
	P2PEnabled bool     `json:"p2pEnabled"`
	Hashes     []string `json:"hashes"`
}

// OpenDiskStore opens (creating if needed) a disk store rooted at dir and
// runs the recovery scan: every object directory's manifest is loaded and
// every piece file re-hashed against it. Corrupt or truncated piece files —
// a crash mid-write that slipped past the atomic rename, a disk error, a
// tampering user — are moved to dir/quarantine and their bits cleared, so
// the download path refetches them instead of serving poison (§3.5: a peer
// that cannot validate a piece discards it).
func OpenDiskStore(dir string, opts DiskStoreOptions) (*DiskStore, error) {
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &DiskStore{
		objectsDir: filepath.Join(dir, "objects"),
		quarDir:    filepath.Join(dir, "quarantine"),
		corrupt: reg.Counter("store_recovery_corrupt_total",
			"piece files quarantined after failing hash re-verification", nil),
		objs: make(map[ObjectID]*diskObject),
	}
	for _, d := range []string{s.objectsDir, s.quarDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("content: diskstore: %w", err)
		}
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// Recovery returns the result of the startup recovery scan.
func (s *DiskStore) Recovery() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// recover scans the objects directory, rebuilding the in-memory index from
// whatever survived the last process.
func (s *DiskStore) recover() error {
	entries, err := os.ReadDir(s.objectsDir)
	if err != nil {
		return fmt.Errorf("content: diskstore scan: %w", err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			// Stray temp files from a crash mid-rename; harmless, remove.
			os.Remove(filepath.Join(s.objectsDir, ent.Name()))
			continue
		}
		s.recoverObject(ent.Name())
	}
	return nil
}

// recoverObject loads one object directory; on an unreadable or inconsistent
// manifest the whole directory is quarantined.
func (s *DiskStore) recoverObject(name string) {
	objDir := filepath.Join(s.objectsDir, name)
	m, err := loadDiskManifest(objDir, name)
	if err != nil {
		s.quarantineDir(objDir, name)
		s.recovery.QuarantinedObjects++
		return
	}
	o := &diskObject{m: m, have: NewBitfield(m.Object.NumPieces()), dir: objDir}
	files, err := os.ReadDir(objDir)
	if err != nil {
		s.quarantineDir(objDir, name)
		s.recovery.QuarantinedObjects++
		return
	}
	for _, f := range files {
		fname := f.Name()
		if fname == diskManifestName {
			continue
		}
		idx, ok := parsePieceName(fname)
		path := filepath.Join(objDir, fname)
		if !ok {
			os.Remove(path) // leftover temp file from a crash mid-write
			continue
		}
		data, err := os.ReadFile(path)
		if err == nil {
			err = m.Verify(idx, data)
		}
		if err != nil {
			// Flipped bits or truncation: quarantine, never serve or resume.
			s.quarantinePiece(path, name, idx)
			s.recovery.CorruptPieces++
			s.corrupt.Inc()
			continue
		}
		o.have.Set(idx)
		s.recovery.Pieces++
	}
	s.objs[m.Object.ID] = o
	s.recovery.Objects++
}

func loadDiskManifest(objDir, dirName string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(objDir, diskManifestName))
	if err != nil {
		return nil, err
	}
	var dm diskManifest
	if err := json.Unmarshal(raw, &dm); err != nil {
		return nil, err
	}
	obj, err := NewObject(CPCode(dm.CP), dm.URL, dm.Version, dm.Size, dm.PieceSize, dm.P2PEnabled)
	if err != nil {
		return nil, err
	}
	// The directory is named after the secure content ID; a manifest whose
	// re-derived ID disagrees has been corrupted or moved.
	if obj.ID.Hex() != dirName {
		return nil, fmt.Errorf("content: manifest ID mismatch in %s", dirName)
	}
	if len(dm.Hashes) != obj.NumPieces() {
		return nil, fmt.Errorf("content: manifest in %s has %d hashes, want %d",
			dirName, len(dm.Hashes), obj.NumPieces())
	}
	m := &Manifest{Object: *obj, Hashes: make([]PieceHash, len(dm.Hashes))}
	for i, h := range dm.Hashes {
		b, err := hex.DecodeString(h)
		if err != nil || len(b) != len(m.Hashes[i]) {
			return nil, fmt.Errorf("content: bad piece hash %d in %s", i, dirName)
		}
		copy(m.Hashes[i][:], b)
	}
	return m, nil
}

func pieceName(idx int) string { return fmt.Sprintf("%08d%s", idx, pieceSuffix) }

func parsePieceName(name string) (int, bool) {
	if !strings.HasSuffix(name, pieceSuffix) {
		return 0, false
	}
	idx, err := strconv.Atoi(strings.TrimSuffix(name, pieceSuffix))
	if err != nil || idx < 0 {
		return 0, false
	}
	return idx, true
}

// quarantinePiece moves a failed piece file into the quarantine directory.
func (s *DiskStore) quarantinePiece(path, objName string, idx int) {
	dst := filepath.Join(s.quarDir, fmt.Sprintf("%s-p%d%s", objName, idx, pieceSuffix))
	os.Remove(dst)
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path) // quarantine failed; removal still protects the peer
	}
}

// quarantineDir moves a whole object directory into quarantine.
func (s *DiskStore) quarantineDir(objDir, name string) {
	dst := filepath.Join(s.quarDir, name)
	os.RemoveAll(dst)
	if err := os.Rename(objDir, dst); err != nil {
		os.RemoveAll(objDir)
	}
}

// object returns (creating and persisting the manifest if needed) the
// in-memory state for an object. Caller holds s.mu.
func (s *DiskStore) object(m *Manifest) (*diskObject, error) {
	if o := s.objs[m.Object.ID]; o != nil {
		return o, nil
	}
	name := m.Object.ID.Hex()
	objDir := filepath.Join(s.objectsDir, name)
	if err := os.MkdirAll(objDir, 0o755); err != nil {
		return nil, fmt.Errorf("content: diskstore object dir: %w", err)
	}
	dm := diskManifest{
		CP:         uint32(m.Object.CP),
		URL:        m.Object.URL,
		Version:    m.Object.Version,
		Size:       m.Object.Size,
		PieceSize:  m.Object.PieceSize,
		P2PEnabled: m.Object.P2PEnabled,
		Hashes:     make([]string, len(m.Hashes)),
	}
	for i, h := range m.Hashes {
		dm.Hashes[i] = hex.EncodeToString(h[:])
	}
	raw, err := json.MarshalIndent(dm, "", "  ")
	if err != nil {
		return nil, err
	}
	// The manifest must be durable before any piece that depends on it:
	// recovery quarantines pieces it cannot verify.
	if err := fsutil.WriteFileAtomic(filepath.Join(objDir, diskManifestName), raw, 0o644); err != nil {
		return nil, err
	}
	mCopy := &Manifest{Object: m.Object, Hashes: append([]PieceHash(nil), m.Hashes...)}
	o := &diskObject{m: mCopy, have: NewBitfield(m.Object.NumPieces()), dir: objDir}
	s.objs[m.Object.ID] = o
	return o, nil
}

// Put implements Store: the piece is verified, then written durably (temp
// file + fsync + rename + dir fsync) so a crash can only lose pieces that
// were never acknowledged, never corrupt one that was.
func (s *DiskStore) Put(m *Manifest, index int, data []byte) error {
	if err := m.Verify(index, data); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o, err := s.object(m)
	if err != nil {
		return err
	}
	if o.have.Has(index) {
		return nil
	}
	if err := fsutil.WriteFileAtomic(filepath.Join(o.dir, pieceName(index)), data, 0o644); err != nil {
		return fmt.Errorf("content: diskstore put: %w", err)
	}
	o.have.Set(index)
	return nil
}

// Get implements Store. The piece is re-verified on the way out — a peer
// never uploads bytes it cannot validate (§3.5) — and a piece that rotted
// since the recovery scan is quarantined and reported absent, so the caller
// refetches it.
func (s *DiskStore) Get(id ObjectID, index int) ([]byte, bool) {
	s.mu.Lock()
	o := s.objs[id]
	if o == nil || !o.have.Has(index) {
		s.mu.Unlock()
		return nil, false
	}
	m := o.m
	path := filepath.Join(o.dir, pieceName(index))
	s.mu.Unlock()

	data, err := os.ReadFile(path)
	if err == nil {
		err = m.Verify(index, data)
	}
	if err != nil {
		s.mu.Lock()
		if o2 := s.objs[id]; o2 == o && o.have.Has(index) {
			o.have.Clear(index)
			s.quarantinePiece(path, id.Hex(), index)
			s.corrupt.Inc()
		}
		s.mu.Unlock()
		return nil, false
	}
	return data, true
}

// Have implements Store.
func (s *DiskStore) Have(id ObjectID) *Bitfield {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.objs[id]
	if o == nil {
		return nil
	}
	return o.have.Clone()
}

// Complete implements Store.
func (s *DiskStore) Complete(id ObjectID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.objs[id]
	return o != nil && o.have.Complete()
}

// Manifest returns the persisted manifest of an object, or nil when the
// store holds nothing for it. Resumed downloads use it to avoid a manifest
// refetch when the edge is unreachable.
func (s *DiskStore) Manifest(id ObjectID) *Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.objs[id]
	if o == nil {
		return nil
	}
	return &Manifest{Object: o.m.Object, Hashes: append([]PieceHash(nil), o.m.Hashes...)}
}

// Drop implements Store: eviction parity with MemStore — the object's
// directory (manifest and all pieces) is removed in one call.
func (s *DiskStore) Drop(id ObjectID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.objs[id]
	if o == nil {
		return
	}
	os.RemoveAll(o.dir)
	fsutil.SyncDir(s.objectsDir)
	delete(s.objs, id)
}

// Objects implements Store.
func (s *DiskStore) Objects() []ObjectID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ObjectID, 0, len(s.objs))
	for id := range s.objs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		return strings.Compare(string(out[i][:]), string(out[j][:])) < 0
	})
	return out
}
