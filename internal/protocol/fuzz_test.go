package protocol

import (
	"bytes"
	"testing"

	"netsession/internal/content"
	"netsession/internal/id"
)

// FuzzReadMessage feeds arbitrary bytes to the frame parser. The parser must
// never panic and never allocate absurd buffers: hostile peers speak this
// protocol directly at the CN and at every uploading peer.
func FuzzReadMessage(f *testing.F) {
	// Seed with valid frames of each message family.
	seedMsgs := []Message{
		&Login{GUID: id.GUID{1}, SoftwareVersion: "s", SwarmAddr: "a:1"},
		&Query{Object: content.NewObjectID(1, "u", 1), Token: []byte("t"), MaxPeers: 40},
		&QueryResult{Peers: []PeerInfo{{Addr: "x:1"}}},
		&UsageLog{Entry: []byte(`{"kind":"download","fromPeers":[{"bytes":1}]}`)},
		&Piece{Index: 3, Data: []byte("data")},
		&ReAddReply{Entries: []ReAddEntry{{NumPieces: 2}}},
	}
	for _, m := range seedMsgs {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{'N', 'S', 1, 1, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	// A Piece whose Data spans several 256-byte blocks, written by
	// reference: the decoder's aliasing path with a non-trivial body.
	var piece bytes.Buffer
	data := make([]byte, 700)
	content.SyntheticBody(content.NewObjectID(1, "u", 1), 300, data)
	if err := WriteMessage(&piece, &Piece{Index: 1 << 20, Data: data}); err != nil {
		f.Fatal(err)
	}
	f.Add(piece.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must re-encode without error.
		var buf bytes.Buffer
		if err := WriteMessage(&buf, msg); err != nil {
			t.Fatalf("decoded message fails to re-encode: %v", err)
		}
		// And the re-encoding must decode to an equal-typed message.
		again, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("re-encoded message fails to decode: %v", err)
		}
		if again.Type() != msg.Type() {
			t.Fatalf("type changed across round trip: %v -> %v", msg.Type(), again.Type())
		}
	})
}
