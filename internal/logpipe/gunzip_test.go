package logpipe

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"
	"testing/iotest"
)

// gunzipOracle is what compress/gzip returns for data read to the end.
func gunzipOracle(data []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return io.ReadAll(zr)
}

// checkGunzip holds gunzipReader to the oracle on data: the same bytes, then
// a clean end exactly when the oracle ends cleanly. It reads the input whole,
// one byte per source read and 13 bytes per source read, so chunk
// boundaries fall everywhere, with one reader that first decoded another
// stream, so reset must clear every state.
func checkGunzip(t *testing.T, z *gunzipReader, data []byte) {
	t.Helper()
	want, werr := gunzipOracle(data)
	for _, src := range []struct {
		name string
		r    io.Reader
	}{
		{"whole", bytes.NewReader(data)},
		{"one-byte", iotest.OneByteReader(bytes.NewReader(data))},
		{"13-byte", &chunkedReader{data, 13}},
	} {
		z.reset(src.r)
		got, err := io.ReadAll(z)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s reads: %d bytes (err %v), compress/gzip %d bytes (err %v); first difference at %d",
				src.name, len(got), err, len(want), werr, firstDiff(got, want))
		}
		if (err == nil) != (werr == nil) {
			t.Fatalf("%s reads: error %v, compress/gzip error %v", src.name, err, werr)
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// chunkedReader returns at most n bytes per Read.
type chunkedReader struct {
	data []byte
	n    int
}

func (c *chunkedReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	k := copy(p[:min(len(p), c.n)], c.data)
	c.data = c.data[k:]
	return k, nil
}

// gz compresses data as one member at level.
func gz(tb testing.TB, level int, data []byte, hdr gzip.Header) []byte {
	tb.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	zw.Header = hdr
	if _, err := zw.Write(data); err != nil {
		tb.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// member wraps raw DEFLATE data as a gzip member with the given header
// flags and fields, and a trailer for content.
func member(flags byte, fields, deflate, content []byte) []byte {
	out := append([]byte{0x1f, 0x8b, 8, flags, 0, 0, 0, 0, 0, 255}, fields...)
	if flags&2 != 0 {
		out = binary.LittleEndian.AppendUint16(out, uint16(crc32.ChecksumIEEE(out)))
	}
	out = append(out, deflate...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(content))
	return binary.LittleEndian.AppendUint32(out, uint32(len(content)))
}

// gunzipSeeds covers the contract's cases: valid, torn and garbage segments;
// multi-member streams and an empty member; every header flag, FHCRC good
// and bad, names at and past compress/gzip's length limit; stored, fixed and
// dynamic blocks; too many codes; a distance past the data decoded, also
// into the member before; CRC-32 and ISIZE mismatches; truncation and trailing garbage; and
// single-bit flips through a dynamic block's code lengths, which make
// incomplete and over-subscribed codes.
func gunzipSeeds(tb testing.TB) [][]byte {
	seeds := fuzzSeedSegments()
	text := bytes.Join(testLines(40), []byte("\n"))
	seg := gz(tb, gzip.BestSpeed, text, gzip.Header{})
	short := gz(tb, gzip.BestCompression, []byte("hello, hello, hello"), gzip.Header{})
	stored := gz(tb, gzip.NoCompression, text, gzip.Header{})
	named := gz(tb, gzip.DefaultCompression, text, gzip.Header{Name: "seg.ndjson", Comment: "c", Extra: []byte{1, 2, 3}})
	// A fixed block holding one literal 'a' (code 0x91), then EOB.
	fixed := []byte{0x4b, 0x04, 0x00}
	// A fixed block whose first symbol is a length-3 match at distance 1,
	// with nothing decoded to copy from.
	tooFar := []byte{0x03, 0x02, 0x00}
	badCRC := bytes.Clone(seg)
	badCRC[len(badCRC)-8] ^= 1
	badSize := bytes.Clone(seg)
	badSize[len(badSize)-1] ^= 1
	hcrc := member(2|4|8|16, []byte{2, 0, 'x', 'y', 'n', 0, 'c', 0}, fixed, []byte("a"))
	badHcrc := bytes.Clone(hcrc)
	badHcrc[18] ^= 1
	// The first block header's HLIT and HDIST fields all ones: 288 literal
	// and 32 distance codes, past what DEFLATE allows.
	tooMany := bytes.Clone(seg)
	tooMany[10] |= 0xf8
	tooMany[11] |= 0x1f
	seeds = append(seeds,
		[]byte("\x1f\x8b\x08\x00arbitrary bytes after a gzip magic"),
		append(bytes.Clone(seg), short...),
		append(append(bytes.Clone(short), gz(tb, gzip.BestSpeed, nil, gzip.Header{})...), stored...),
		append(bytes.Clone(seg), short[:7]...),
		append(bytes.Clone(seg), short[:len(short)-3]...),
		seg[:len(seg)-1],
		append(bytes.Clone(seg), 0),
		append(bytes.Clone(seg), make([]byte, 10)...),
		short, stored, stored[:len(stored)/2], named,
		member(0, nil, fixed, []byte("a")),
		member(0, nil, tooFar, nil),
		append(bytes.Clone(short), member(0, nil, tooFar, nil)...),
		gz(tb, gzip.BestSpeed, text, gzip.Header{Name: strings.Repeat("n", 511)}),
		gz(tb, gzip.BestSpeed, text, gzip.Header{Comment: strings.Repeat("c", 512)}),
		tooMany,
		badCRC, badSize, hcrc, badHcrc,
	)
	for bit := 10 * 8; bit < 40*8; bit += 3 {
		flipped := bytes.Clone(seg)
		flipped[bit/8] ^= 1 << (bit % 8)
		seeds = append(seeds, flipped)
	}
	return seeds
}

// FuzzGunzip holds the log pipeline's gzip reader to compress/gzip: on any
// bytes it returns what compress/gzip returns read to the end, and ends
// cleanly exactly when compress/gzip does.
func FuzzGunzip(f *testing.F) {
	for _, s := range gunzipSeeds(f) {
		f.Add(s)
	}
	warm := gz(f, gzip.BestSpeed, bytes.Join(testLines(20), []byte("\n")), gzip.Header{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var z gunzipReader
		z.reset(bytes.NewReader(warm))
		if _, err := io.ReadAll(&z); err != nil {
			t.Fatal(err)
		}
		checkGunzip(t, &z, data)
	})
}

// TestGunzipEveryTruncation cuts short streams of dynamic, fixed and stored
// blocks at every length: the bytes decoded before each cut must be exactly
// compress/gzip's, which decodes no literal from fewer bits than its block's
// end-of-block code needs.
func TestGunzipEveryTruncation(t *testing.T) {
	text := bytes.Join(testLines(30), []byte("\n"))
	var z gunzipReader
	for _, level := range []int{gzip.BestSpeed, gzip.BestCompression, gzip.NoCompression} {
		s := gz(t, level, text, gzip.Header{})
		for cut := range len(s) {
			checkGunzip(t, &z, s[:cut])
		}
	}
	fixed := gz(t, gzip.BestCompression, []byte("hello, hello, hello"), gzip.Header{})
	for cut := range len(fixed) {
		checkGunzip(t, &z, fixed[:cut])
	}
}

// TestGunzipLargeStreams runs the contract on streams longer than the
// window, so it slides: a segment of 4,000 records, stored blocks, runs at
// distance 1, periods under the 8-byte copy width, matches at the full
// 32 KiB distance, all of them as one multi-member stream, and the segment
// cut at points through its length.
func TestGunzipLargeStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	random := make([]byte, 300<<10)
	rng.Read(random)
	far := bytes.Repeat(random[:maxDist], 6)
	var periodic []byte
	for i := 0; i < 200_000; i++ {
		periodic = append(periodic, "abcdefg"[i%(1+i/40_000)])
	}
	seg, err := MarshalSegment(recordLines(0, 4000))
	if err != nil {
		t.Fatal(err)
	}
	streams := [][]byte{
		seg,
		gz(t, gzip.NoCompression, random, gzip.Header{}),
		gz(t, gzip.BestCompression, bytes.Repeat([]byte{'z'}, 1<<20), gzip.Header{}),
		gz(t, gzip.BestCompression, periodic, gzip.Header{}),
		gz(t, gzip.BestCompression, far, gzip.Header{}),
		gz(t, gzip.HuffmanOnly, random[:100<<10], gzip.Header{}),
	}
	var z gunzipReader
	for _, s := range streams {
		checkGunzip(t, &z, s)
	}
	checkGunzip(t, &z, bytes.Join(streams, nil))
	for cut := 1; cut < len(seg); cut += len(seg)/7 + 1 {
		checkGunzip(t, &z, seg[:cut])
	}
}

// BenchmarkGunzip decodes one 4,000-record segment, written by the bulk
// writer like the benchmark's store, with the log pipeline's reader and with
// compress/gzip; MB/s counts decoded bytes.
func BenchmarkGunzip(b *testing.B) {
	dir := b.TempDir()
	writeBenchStore(b, dir, 1, 4000)
	segs, err := ListSegments(dir)
	if err != nil || len(segs) != 1 {
		b.Fatalf("bench store: %d segments, err %v", len(segs), err)
	}
	data, err := os.ReadFile(segs[0].Path)
	if err != nil {
		b.Fatal(err)
	}
	text, err := gunzipOracle(data)
	if err != nil {
		b.Fatal(err)
	}
	var z gunzipReader
	var zr gzip.Reader
	for _, r := range []struct {
		name  string
		reset func(io.Reader) (io.Reader, error)
	}{
		{"logpipe", func(src io.Reader) (io.Reader, error) { z.reset(src); return &z, nil }},
		{"compress-gzip", func(src io.Reader) (io.Reader, error) { return &zr, zr.Reset(src) }},
	} {
		b.Run(r.name, func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dec, err := r.reset(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				n, err := io.Copy(io.Discard, dec)
				if err != nil || n != int64(len(text)) {
					b.Fatalf("decoded %d bytes, err %v; want %d", n, err, len(text))
				}
			}
		})
	}
}
