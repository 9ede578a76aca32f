package content

import "sync"

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
