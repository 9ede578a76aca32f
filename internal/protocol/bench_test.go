package protocol

import (
	"bytes"
	"fmt"
	"testing"

	"netsession/internal/content"
	"netsession/internal/id"
)

// BenchmarkPieceRoundTrip measures framing cost for a 64 KiB and a 256 KiB
// piece — the hot path of every swarm transfer.
func BenchmarkPieceRoundTrip(b *testing.B) {
	for _, size := range []int{64 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			msg := &Piece{Index: 42, Data: make([]byte, size)}
			var buf bytes.Buffer
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := WriteMessage(&buf, msg); err != nil {
					b.Fatal(err)
				}
				if _, err := ReadMessage(&buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryResultEncode measures control-plane reply encoding with a
// full 40-peer result.
func BenchmarkQueryResultEncode(b *testing.B) {
	m := &QueryResult{Object: content.NewObjectID(1, "u", 1)}
	for i := 0; i < 40; i++ {
		m.Peers = append(m.Peers, PeerInfo{
			GUID: id.GUID{byte(i)}, Addr: "203.0.113.7:7000",
			NAT: NATPortRestricted, ASN: 1000, Location: 5,
		})
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteMessage(&buf, m); err != nil {
			b.Fatal(err)
		}
	}
}
