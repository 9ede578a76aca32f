// Package logpipe is the client-log collection pipeline (§3.4/§4.1): the
// peer-side durable spool that batches per-download usage records into
// gzip-compressed NDJSON segments, the uploader that ships sealed segments to
// the control plane over HTTP with idempotent batch IDs, the CP-side ingest
// endpoint that verifies, deduplicates and applies backpressure, and the
// append-only rotated segment store whose files feed the same offline
// analyses as the simulator's exported logs. The paper's entire evaluation
// rests on exactly this pipeline: NetSession clients "upload logs to the
// infrastructure", producing the ~4.15 billion log entries per month that
// §4.1 joins with EdgeScape data offline.
package logpipe

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"netsession/internal/analysis"
)

// A segment is one gzip-compressed NDJSON file: newline-terminated JSON
// records, compressed as a single gzip stream. Segments are written
// atomically (fsutil.WriteFileAtomic), so under the system's own crash model
// a segment is either fully present or absent — but files can still arrive
// torn through copies, truncation, or foreign writers, so the reader
// recovers every complete record from a damaged stream instead of failing.

// ErrTorn reports that a segment ended mid-stream: the lines returned before
// it are complete and usable, the tail is not. A torn *final* segment in a
// directory is expected after a crash and skipped; a torn middle segment is
// corruption and surfaces as an error.
var ErrTorn = errors.New("logpipe: torn segment tail")

const (
	segPrefix  = "seg-"
	segSuffix  = ".ndjson.gz"
	openSuffix = ".open.ndjson.gz"
)

// segmentName renders the sealed filename of a segment sequence number.
func segmentName(seq uint64) string {
	return fmt.Sprintf("%s%010d%s", segPrefix, seq, segSuffix)
}

// openSegmentName renders the open (still-appending) filename.
func openSegmentName(seq uint64) string {
	return fmt.Sprintf("%s%010d%s", segPrefix, seq, openSuffix)
}

// SegmentFile is one on-disk segment.
type SegmentFile struct {
	Seq  uint64
	Path string
	Size int64
	Open bool // still being appended to (crash leftover or live writer)
}

// parseSegmentName extracts the sequence number from a segment filename.
func parseSegmentName(name string) (seq uint64, open, ok bool) {
	if !strings.HasPrefix(name, segPrefix) {
		return 0, false, false
	}
	rest := name[len(segPrefix):]
	switch {
	case strings.HasSuffix(rest, openSuffix):
		open = true
		rest = rest[:len(rest)-len(openSuffix)]
	case strings.HasSuffix(rest, segSuffix):
		rest = rest[:len(rest)-len(segSuffix)]
	default:
		return 0, false, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false, false
	}
	return n, open, true
}

// ListSegments enumerates the segments in a directory, sorted by sequence
// number (an open segment sorts by its sequence like any other). Non-segment
// files are ignored.
func ListSegments(dir string) ([]SegmentFile, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []SegmentFile
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		seq, open, ok := parseSegmentName(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, SegmentFile{
			Seq: seq, Path: filepath.Join(dir, e.Name()), Size: info.Size(), Open: open,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// MarshalSegment encodes NDJSON lines (each a complete JSON document without
// the trailing newline) as one gzip-compressed segment.
func MarshalSegment(lines [][]byte) ([]byte, error) {
	var buf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	for _, l := range lines {
		if _, err := zw.Write(l); err != nil {
			return nil, fmt.Errorf("logpipe: compress segment: %w", err)
		}
		if _, err := zw.Write([]byte{'\n'}); err != nil {
			return nil, fmt.Errorf("logpipe: compress segment: %w", err)
		}
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("logpipe: close segment: %w", err)
	}
	return buf.Bytes(), nil
}

// ReadSegment decompresses a segment and returns its complete lines. A
// stream that ends mid-record or mid-gzip-frame returns the lines recovered
// so far together with ErrTorn; any other corruption is also reported as
// ErrTorn since gzip cannot distinguish truncation from trailing damage
// without the stream's end. Callers decide whether a torn tail is tolerable
// (final segment after a crash) or fatal (middle of a directory).
func ReadSegment(r io.Reader) ([][]byte, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, ErrTorn
	}
	defer zr.Close()
	// Frame on the trailing newline explicitly rather than with bufio.Scanner:
	// the Scanner emits a final unterminated token on *any* read error, which
	// would surface a half-written record from a torn stream as if complete.
	br := bufio.NewReaderSize(zr, 64<<10)
	var out [][]byte
	var partial []byte
	for {
		chunk, err := br.ReadSlice('\n')
		partial = append(partial, chunk...)
		if len(partial) > analysis.MaxLineBytes {
			return out, ErrTorn
		}
		switch err {
		case nil:
			if line := partial[:len(partial)-1]; len(line) > 0 {
				out = append(out, append([]byte(nil), line...))
			}
			partial = partial[:0]
		case bufio.ErrBufferFull:
			// Line longer than the read buffer; keep accumulating.
		case io.EOF:
			// The writer terminates every line, so leftover bytes at a clean
			// stream end are a record cut mid-write.
			if len(partial) == 0 {
				return out, nil
			}
			return out, ErrTorn
		default:
			// Includes gzip checksum errors and unexpected EOF from a torn tail.
			return out, ErrTorn
		}
	}
}

// ReadSegmentFile reads one segment from disk.
func ReadSegmentFile(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSegment(f)
}

// countRecords returns how many complete records a segment file holds; used
// when accounting for records dropped by retention.
func countRecords(path string) int {
	lines, _ := ReadSegmentFile(path)
	return len(lines)
}
