package protocol

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
)

// oneByteWriter hands the frame to w one byte per Write call, so the reader
// on the other end sees the frame in the smallest possible fragments.
type oneByteWriter struct{ w io.Writer }

func (o oneByteWriter) Write(p []byte) (int, error) {
	for i := range p {
		if _, err := o.w.Write(p[i : i+1]); err != nil {
			return i, err
		}
	}
	return len(p), nil
}

// pipePair returns the two ends of a connection of the named kind.
func pipePair(t *testing.T, kind string) (w io.Writer, r io.Reader, closeAll func()) {
	t.Helper()
	switch kind {
	case "tcp":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		accepted := make(chan net.Conn, 1)
		go func() {
			c, _ := ln.Accept()
			accepted <- c
		}()
		a, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		b := <-accepted
		if b == nil {
			t.Fatal("accept failed")
		}
		return a, b, func() { a.Close(); b.Close() }
	case "pipe":
		a, b := net.Pipe()
		return a, b, func() { a.Close(); b.Close() }
	default: // "one-byte"
		a, b := net.Pipe()
		return oneByteWriter{a}, b, func() { a.Close(); b.Close() }
	}
}

// TestPieceByReferenceWriters sends pieces written by reference through a
// writer without writev (net.Pipe), one with it (TCP loopback, *net.TCPConn
// takes net.Buffers as one writev) and one that takes a byte per call; every
// one must decode to the same index and bytes.
func TestPieceByReferenceWriters(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var pieces []*Piece
	for _, n := range []int{0, 1, 255, 16 << 10, 256<<10 + 3} {
		data := make([]byte, n)
		rng.Read(data)
		pieces = append(pieces, &Piece{Index: rng.Uint32(), Data: data})
	}
	for _, kind := range []string{"pipe", "tcp", "one-byte"} {
		t.Run(kind, func(t *testing.T) {
			w, r, closeAll := pipePair(t, kind)
			defer closeAll()
			sent := make(chan error, 1)
			go func() {
				for _, p := range pieces {
					if err := WriteMessage(w, p); err != nil {
						sent <- err
						return
					}
				}
				sent <- nil
			}()
			for _, want := range pieces {
				m, err := ReadMessage(r)
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				got, ok := m.(*Piece)
				if !ok || got.Index != want.Index || !bytes.Equal(got.Data, want.Data) {
					t.Fatalf("piece %d (%d bytes) decoded wrong", want.Index, len(want.Data))
				}
				if cap(got.Data) != len(got.Data) {
					t.Fatalf("decoded Data has spare capacity %d > %d", cap(got.Data), len(got.Data))
				}
			}
			if err := <-sent; err != nil {
				t.Fatalf("write: %v", err)
			}
		})
	}
}

// TestPieceFrameCorruption: the CRC covers the index as well as the data
// sent by reference, and a declared data length beyond the payload is
// refused even when the frame's CRC is right.
func TestPieceFrameCorruption(t *testing.T) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(3)).Read(data)
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Piece{Index: 9, Data: data}); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	for _, c := range []struct {
		name string
		at   int
	}{
		{"index", headerLen + 2},
		{"data head", headerLen + 8},
		{"data tail", len(frame) - 1},
	} {
		b := bytes.Clone(frame)
		b[c.at] ^= 0x10
		if _, err := ReadMessage(bytes.NewReader(b)); err == nil {
			t.Errorf("flipped bit in %s accepted", c.name)
		}
	}
	for _, declared := range []uint32{4097, 1 << 20, 0xffffffff} {
		b := bytes.Clone(frame)
		binary.BigEndian.PutUint32(b[headerLen+4:], declared)
		binary.BigEndian.PutUint32(b[8:12], crc32.ChecksumIEEE(b[headerLen:]))
		if _, err := ReadMessage(bytes.NewReader(b)); err == nil {
			t.Errorf("declared data length %d over 4096 remaining bytes accepted", declared)
		}
	}
}

// TestPieceRoundTripAllocBytes is the allocation gate of the piece codec:
// a 256 KiB Piece written and read back may allocate at most 1.25x its
// size — the one payload buffer the decoded Data lives in, plus headers.
func TestPieceRoundTripAllocBytes(t *testing.T) {
	const size = 256 << 10
	const runs = 50
	msg := &Piece{Index: 42, Data: make([]byte, size)}
	var buf bytes.Buffer
	buf.Grow(size + 64)
	roundTrip := func() {
		buf.Reset()
		if err := WriteMessage(&buf, msg); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadMessage(&buf); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun
	roundTrip()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		roundTrip()
	}
	runtime.ReadMemStats(&after)
	if got, limit := (after.TotalAlloc-before.TotalAlloc)/runs, uint64(size*5/4); got > limit {
		t.Fatalf("256 KiB piece round trip allocates %d bytes/op, limit %d (1.25x)", got, limit)
	}
}
