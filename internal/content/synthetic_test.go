package content

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"netsession/internal/golden"
)

// TestGoldenSyntheticManifest pins the synthetic body: every edge server,
// peer and simulator materialises content from SyntheticBody, so its bytes
// (and with them every manifest hash) must not change under optimisation.
func TestGoldenSyntheticManifest(t *testing.T) {
	var b strings.Builder
	for _, c := range []struct {
		url       string
		size      int64
		pieceSize int
	}{
		{"golden/small.bin", 1 << 20, 16 << 10},
		{"golden/bulk.bin", 32 << 20, 256 << 10},
	} {
		obj, err := NewObject(7001, c.url, 1, c.size, c.pieceSize, true)
		if err != nil {
			t.Fatal(err)
		}
		m, err := SyntheticManifest(obj)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "# %s size=%d pieceSize=%d id=%s\n", c.url, c.size, c.pieceSize, hex.EncodeToString(obj.ID[:]))
		for i, h := range m.Hashes {
			fmt.Fprintf(&b, "%d %s\n", i, hex.EncodeToString(h[:]))
		}
	}
	golden.Check(t, "synthetic_manifest.golden", []byte(b.String()))
}

// referenceSyntheticBody is the per-byte definition SyntheticBody must
// reproduce.
func referenceSyntheticBody(id ObjectID, off int64, p []byte) {
	for i := range p {
		o := off + int64(i)
		p[i] = id[o%32] ^ byte(o) ^ byte(o>>8) ^ byte(o>>16)
	}
}

// TestSyntheticBodyMatchesReference compares the block-at-a-time generator
// with the per-byte definition over seeded random ranges: unaligned heads
// and tails, lengths under one 256-byte block, 64 KiB chunk boundaries and
// offsets past 2^24, where the two high terms wrap.
func TestSyntheticBodyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type span struct {
		off int64
		n   int
	}
	var spans []span
	for i := 0; i < 400; i++ {
		var s span
		switch i % 4 {
		case 0: // anywhere, any length up to 300 KiB
			s = span{rng.Int63n(1 << 30), rng.Intn(300 << 10)}
		case 1: // shorter than a block, possibly straddling a block boundary
			s = span{rng.Int63n(1<<26) + int64(rng.Intn(256)), rng.Intn(256)}
		case 2: // across a 64 KiB chunk boundary, unaligned on both ends
			s = span{int64(rng.Intn(1<<14))<<16 - int64(rng.Intn(1000)), 1 + rng.Intn(3000)}
		case 3: // aligned start, unaligned tail
			s = span{int64(rng.Intn(1<<22)) << 8, rng.Intn(70 << 10)}
		}
		spans = append(spans, s)
	}
	spans = append(spans, span{0, 0}, span{0, 1}, span{255, 1}, span{255, 2}, span{0, 256},
		span{1<<16 - 1, 2}, span{1<<24 - 128, 512}, span{1 << 32, 4096})
	for _, s := range spans {
		s.off = max(s.off, 0)
		id := NewObjectID(CPCode(rng.Uint32()), "x", 1)
		got, want := make([]byte, s.n), make([]byte, s.n)
		SyntheticBody(id, s.off, got)
		referenceSyntheticBody(id, s.off, want)
		if !bytes.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("off=%d n=%d: byte %d (offset %d) is %#x, want %#x", s.off, s.n, i, s.off+int64(i), got[i], want[i])
				}
			}
		}
	}
}
