package content

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func testObject(t testing.TB, size int64) (*Object, *Manifest) {
	t.Helper()
	obj, err := NewObject(1001, "https://example.test/installer.bin", 1, size, 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	m, err := SyntheticManifest(obj)
	if err != nil {
		t.Fatal(err)
	}
	return obj, m
}

func TestObjectIDVersioning(t *testing.T) {
	a := NewObjectID(1, "u", 1)
	b := NewObjectID(1, "u", 2)
	c := NewObjectID(2, "u", 1)
	d := NewObjectID(1, "v", 1)
	if a == b || a == c || a == d || b == c {
		t.Error("object IDs must differ across version, CP and URL")
	}
	if a != NewObjectID(1, "u", 1) {
		t.Error("object IDs must be deterministic")
	}
}

func TestPieceGeometry(t *testing.T) {
	cases := []struct {
		size      int64
		pieceSize int
		n         int
		lastLen   int
	}{
		{0, 100, 0, 0},
		{1, 100, 1, 1},
		{100, 100, 1, 100},
		{101, 100, 2, 1},
		{250, 100, 3, 50},
	}
	for _, c := range cases {
		obj := &Object{Size: c.size, PieceSize: c.pieceSize}
		if got := obj.NumPieces(); got != c.n {
			t.Errorf("size=%d: NumPieces=%d want %d", c.size, got, c.n)
		}
		if c.n > 0 {
			if got := obj.PieceLength(c.n - 1); got != c.lastLen {
				t.Errorf("size=%d: last PieceLength=%d want %d", c.size, got, c.lastLen)
			}
		}
		if got := obj.PieceLength(c.n); got != 0 {
			t.Errorf("size=%d: out-of-range PieceLength=%d want 0", c.size, got)
		}
		var total int64
		for i := 0; i < c.n; i++ {
			total += int64(obj.PieceLength(i))
		}
		if total != c.size {
			t.Errorf("size=%d: piece lengths sum to %d", c.size, total)
		}
	}
}

func TestManifestVerify(t *testing.T) {
	obj, m := testObject(t, 10000)
	if len(m.Hashes) != obj.NumPieces() {
		t.Fatalf("manifest has %d hashes, want %d", len(m.Hashes), obj.NumPieces())
	}
	buf := make([]byte, obj.PieceLength(0))
	SyntheticBody(obj.ID, 0, buf)
	if err := m.Verify(0, buf); err != nil {
		t.Fatalf("valid piece rejected: %v", err)
	}
	buf[10] ^= 0xff
	if err := m.Verify(0, buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted piece: Verify returned %v, want ErrCorrupt", err)
	}
	if err := m.Verify(0, buf[:10]); err == nil {
		t.Fatal("short piece accepted")
	}
	if err := m.Verify(-1, buf); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := m.Verify(len(m.Hashes), buf); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestSyntheticReaderMatchesBody(t *testing.T) {
	id := NewObjectID(5, "x", 3)
	all, err := io.ReadAll(SyntheticReader(id, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 10_000 {
		t.Fatalf("read %d bytes", len(all))
	}
	// Chunked generation must agree with the stream regardless of offsets.
	chunk := make([]byte, 777)
	for off := int64(0); off < 10_000; off += 777 {
		n := int64(len(chunk))
		if off+n > 10_000 {
			n = 10_000 - off
		}
		SyntheticBody(id, off, chunk[:n])
		if !bytes.Equal(chunk[:n], all[off:off+n]) {
			t.Fatalf("mismatch at offset %d", off)
		}
	}
}

func TestBitfieldBasics(t *testing.T) {
	b := NewBitfield(130)
	if b.Count() != 0 || b.Complete() {
		t.Fatal("fresh bitfield should be empty")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	b.Set(200) // ignored
	b.Set(-1)  // ignored
	if b.Count() != 3 {
		t.Fatalf("Count=%d want 3", b.Count())
	}
	if !b.Has(64) || b.Has(63) || b.Has(200) {
		t.Fatal("Has wrong")
	}
	b.Clear(64)
	if b.Has(64) || b.Count() != 2 {
		t.Fatal("Clear wrong")
	}
	for i := 0; i < 130; i++ {
		b.Set(i)
	}
	if !b.Complete() {
		t.Fatal("Complete false after setting all")
	}
}

func TestBitfieldRoundTrip(t *testing.T) {
	f := func(n uint8, setBits []uint16) bool {
		size := int(n)
		b := NewBitfield(size)
		for _, s := range setBits {
			if size > 0 {
				b.Set(int(s) % size)
			}
		}
		enc := b.MarshalBinary()
		dec, ok := UnmarshalBitfield(size, enc)
		if !ok {
			return false
		}
		for i := 0; i < size; i++ {
			if b.Has(i) != dec.Has(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitfieldUnmarshalRejectsPadding(t *testing.T) {
	enc := []byte{0xff} // 8 bits set for a 5-piece field
	if _, ok := UnmarshalBitfield(5, enc); ok {
		t.Error("padding bits set should be rejected")
	}
	if _, ok := UnmarshalBitfield(5, []byte{0xf8, 0x00}); ok {
		t.Error("wrong length should be rejected")
	}
	if bf, ok := UnmarshalBitfield(5, []byte{0xf8}); !ok || bf.Count() != 5 {
		t.Error("valid encoding rejected")
	}
}

func TestBitfieldFirstMissingIn(t *testing.T) {
	mine := NewBitfield(100)
	theirs := NewBitfield(100)
	if got := mine.FirstMissingIn(theirs); got != -1 {
		t.Fatalf("empty peer: got %d want -1", got)
	}
	theirs.Set(70)
	if got := mine.FirstMissingIn(theirs); got != 70 {
		t.Fatalf("got %d want 70", got)
	}
	mine.Set(70)
	if got := mine.FirstMissingIn(theirs); got != -1 {
		t.Fatalf("already have it: got %d want -1", got)
	}
}

func testStore(t *testing.T, s Store) {
	obj, m := testObject(t, 12_345)
	n := obj.NumPieces()

	if bf := s.Have(obj.ID); bf != nil {
		t.Fatal("unknown object should have nil bitfield")
	}
	// Store all pieces out of order.
	for i := n - 1; i >= 0; i-- {
		buf := make([]byte, obj.PieceLength(i))
		SyntheticBody(obj.ID, obj.PieceOffset(i), buf)
		if err := s.Put(m, i, buf); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
		if i == n-1 && s.Complete(obj.ID) {
			t.Fatal("Complete true with missing pieces")
		}
	}
	if !s.Complete(obj.ID) {
		t.Fatal("Complete false after storing all pieces")
	}
	for i := 0; i < n; i++ {
		got, ok := s.Get(obj.ID, i)
		if !ok {
			t.Fatalf("Get(%d) missing", i)
		}
		if err := m.Verify(i, got); err != nil {
			t.Fatalf("stored piece %d corrupt: %v", i, err)
		}
	}
	// Corrupt pieces are rejected with ErrCorrupt, even over a stored copy.
	bad := make([]byte, obj.PieceLength(0))
	if err := s.Put(m, 0, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt piece: Put returned %v, want ErrCorrupt", err)
	}
	if got, _ := s.Get(obj.ID, 0); m.Verify(0, got) != nil {
		t.Fatal("a refused piece replaced the stored one")
	}
	if got := len(s.Objects()); got != 1 {
		t.Fatalf("Objects()=%d want 1", got)
	}
	s.Drop(obj.ID)
	if _, ok := s.Get(obj.ID, 0); ok {
		t.Fatal("Get after Drop succeeded")
	}
	if s.Complete(obj.ID) {
		t.Fatal("Complete after Drop")
	}
}

func TestMemStore(t *testing.T) { testStore(t, NewMemStore()) }

// TestMemStorePutTakesOwnership pins the buffer contract: Put keeps the
// verified slice itself (no copy in), Get hands that same slice to every
// reader (no copy out), and a duplicate Put leaves the first buffer in place.
func TestMemStorePutTakesOwnership(t *testing.T) {
	s := NewMemStore()
	obj, m := testObject(t, 8192)
	buf := make([]byte, 4096)
	SyntheticBody(obj.ID, 0, buf)
	if err := s.Put(m, 0, buf); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get(obj.ID, 0)
	again, _ := s.Get(obj.ID, 0)
	if &got[0] != &buf[0] || &again[0] != &buf[0] {
		t.Error("Get must return the buffer Put was given, by reference")
	}
	dup := append([]byte(nil), buf...)
	if err := s.Put(m, 0, dup); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Get(obj.ID, 0); &got[0] != &buf[0] {
		t.Error("a duplicate Put replaced the stored buffer")
	}
	if s.Have(obj.ID).Count() != 1 {
		t.Error("duplicate Put changed the bitfield")
	}
}
