package content

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Store holds verified pieces of objects on a peer or an edge server.
// Implementations must be safe for concurrent use.
//
// Put is the one place a received piece is verified, and a piece buffer is
// immutable from the moment it is handed to Put: the store may keep the
// very slice and give it to every reader.
type Store interface {
	// Put verifies a piece against the manifest and stores it; a piece that
	// fails verification is refused with an error wrapping ErrCorrupt. A
	// piece already stored is verified and then dropped. Put takes
	// ownership of data: the caller must not write to it afterwards.
	Put(m *Manifest, index int, data []byte) error
	// Get returns a stored piece, or ok=false if absent. The slice is
	// read-only: it may be the store's own buffer, shared with every other
	// reader.
	Get(id ObjectID, index int) (data []byte, ok bool)
	// Have returns the bitfield of stored pieces for an object (a clone;
	// callers may mutate it). Objects never stored yield an empty bitfield
	// sized from the manifest registry, or nil if unknown.
	Have(id ObjectID) *Bitfield
	// Complete reports whether every piece of the object is stored.
	Complete(id ObjectID) bool
	// Drop removes all pieces of an object (cache eviction: peers keep a
	// file "in a local cache for a certain amount of time", §5.2).
	Drop(id ObjectID)
	// Objects lists the IDs with at least one stored piece.
	Objects() []ObjectID
}

// MemStore is an in-memory Store used by tests, the simulator and
// short-lived peers.
type MemStore struct {
	mu   sync.RWMutex
	objs map[ObjectID]*memObject
}

type memObject struct {
	n      int
	pieces map[int][]byte
	have   *Bitfield
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{objs: make(map[ObjectID]*memObject)}
}

// Put implements Store. The verified slice itself is stored, not a copy.
func (s *MemStore) Put(m *Manifest, index int, data []byte) error {
	if err := m.Verify(index, data); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.objs[m.Object.ID]
	if o == nil {
		o = &memObject{
			n:      m.Object.NumPieces(),
			pieces: make(map[int][]byte),
			have:   NewBitfield(m.Object.NumPieces()),
		}
		s.objs[m.Object.ID] = o
	}
	if !o.have.Has(index) {
		o.pieces[index] = data
		o.have.Set(index)
	}
	return nil
}

// Get implements Store. It returns the stored slice by reference.
func (s *MemStore) Get(id ObjectID, index int) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o := s.objs[id]
	if o == nil {
		return nil, false
	}
	p, ok := o.pieces[index]
	return p, ok
}

// Have implements Store.
func (s *MemStore) Have(id ObjectID) *Bitfield {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o := s.objs[id]
	if o == nil {
		return nil
	}
	return o.have.Clone()
}

// Complete implements Store.
func (s *MemStore) Complete(id ObjectID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o := s.objs[id]
	return o != nil && o.have.Complete()
}

// Drop implements Store.
func (s *MemStore) Drop(id ObjectID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objs, id)
}

// Objects implements Store.
func (s *MemStore) Objects() []ObjectID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ObjectID, 0, len(s.objs))
	for id := range s.objs {
		out = append(out, id)
	}
	return out
}

// FileStore is a disk-backed Store; each object version is one sparse file
// plus a sidecar bitfield, mirroring how the Download Manager keeps partial
// downloads resumable across restarts ("users can ... continue downloads
// that were aborted earlier", §3.3).
type FileStore struct {
	dir string

	mu   sync.Mutex
	objs map[ObjectID]*fileObject
}

type fileObject struct {
	obj  Object
	have *Bitfield
	path string
}

// NewFileStore creates a store rooted at dir, creating it if needed.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("content: filestore: %w", err)
	}
	return &FileStore{dir: dir, objs: make(map[ObjectID]*fileObject)}, nil
}

func (s *FileStore) object(m *Manifest) *fileObject {
	o := s.objs[m.Object.ID]
	if o == nil {
		o = &fileObject{
			obj:  m.Object,
			have: NewBitfield(m.Object.NumPieces()),
			path: filepath.Join(s.dir, m.Object.ID.String()+".part"),
		}
		s.objs[m.Object.ID] = o
	}
	return o
}

// Put implements Store.
func (s *FileStore) Put(m *Manifest, index int, data []byte) error {
	if err := m.Verify(index, data); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.object(m)
	f, err := os.OpenFile(o.path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("content: filestore put: %w", err)
	}
	defer f.Close()
	if _, err := f.WriteAt(data, m.Object.PieceOffset(index)); err != nil {
		return fmt.Errorf("content: filestore write: %w", err)
	}
	o.have.Set(index)
	return nil
}

// Get implements Store.
func (s *FileStore) Get(id ObjectID, index int) ([]byte, bool) {
	s.mu.Lock()
	o := s.objs[id]
	if o == nil || !o.have.Has(index) {
		s.mu.Unlock()
		return nil, false
	}
	length := o.obj.PieceLength(index)
	off := o.obj.PieceOffset(index)
	path := o.path
	s.mu.Unlock()

	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	buf := make([]byte, length)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, false
	}
	return buf, true
}

// Have implements Store.
func (s *FileStore) Have(id ObjectID) *Bitfield {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.objs[id]
	if o == nil {
		return nil
	}
	return o.have.Clone()
}

// Complete implements Store.
func (s *FileStore) Complete(id ObjectID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	o := s.objs[id]
	return o != nil && o.have.Complete()
}

// Drop implements Store.
func (s *FileStore) Drop(id ObjectID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if o := s.objs[id]; o != nil {
		os.Remove(o.path)
		delete(s.objs, id)
	}
}

// Objects implements Store.
func (s *FileStore) Objects() []ObjectID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ObjectID, 0, len(s.objs))
	for id := range s.objs {
		out = append(out, id)
	}
	return out
}
