package protocol

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"netsession/internal/content"
	"netsession/internal/id"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatalf("WriteMessage(%v): %v", m.Type(), err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatalf("ReadMessage(%v): %v", m.Type(), err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%v: %d bytes left after read", m.Type(), buf.Len())
	}
	return got
}

func TestRoundTripAllMessages(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := id.RandGUID(r)
	oid := content.NewObjectID(7, "file", 2)
	var secs [id.HistoryLen]id.Secondary
	for i := range secs {
		secs[i] = id.RandSecondary(r)
	}
	msgs := []Message{
		&Login{GUID: g, Secondaries: secs, SoftwareVersion: "ns-1.2.3",
			UploadsEnabled: true, SwarmAddr: "10.1.2.3:7788", NAT: NATPortRestricted,
			DeclaredIP: "10.1.2.3"},
		&LoginAck{OK: true, RetryAfterMs: 0, ConfigEpoch: 9},
		&LoginAck{OK: false, RetryAfterMs: 30_000},
		&Query{Object: oid, Token: []byte("tok"), MaxPeers: 40},
		&QueryResult{Object: oid, Peers: []PeerInfo{
			{GUID: g, Addr: "1.2.3.4:5", NAT: NATFullCone, ASN: 1001, Location: 3},
			{GUID: id.RandGUID(r), Addr: "5.6.7.8:9", NAT: NATSymmetric, ASN: 1002, Location: 4},
		}},
		&QueryResult{Object: oid, Err: "unauthorized"},
		&ConnectTo{Object: oid, Peer: PeerInfo{GUID: g, Addr: "9.9.9.9:1", NAT: NATNone, ASN: 5, Location: 6}},
		&Register{Object: oid, NumPieces: 100, HaveCount: 42, Complete: false},
		&Unregister{Object: oid},
		&ReAdd{},
		&UsageLog{Entry: []byte(`{"kind":"download","size":1073741824}`)},
		&ConfigUpdate{Epoch: 3, MaxUploadConns: 8, PerObjectUploadCap: 20,
			UploadRateBps: 1 << 20, CacheTTLSec: 86400},
		&Ping{Nonce: 0xdeadbeef},
		&Pong{Nonce: 0xdeadbeef},
		&Handshake{GUID: g, Object: oid, Token: []byte("t")},
		&HandshakeAck{OK: true, NumPieces: 512},
		&HandshakeAck{OK: false, Reason: "unknown object"},
		&BitfieldMsg{Bits: []byte{0xff, 0x80}},
		&Have{Index: 12},
		&Request{Index: 13},
		&Piece{Index: 13, Data: []byte("piece-bytes")},
		&Goodbye{Reason: "done"},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%v round trip mismatch:\n sent %#v\n got  %#v", m.Type(), m, got)
		}
	}
}

func TestReadMessageStream(t *testing.T) {
	var buf bytes.Buffer
	in := []Message{&Ping{1}, &Have{2}, &Goodbye{"x"}}
	for _, m := range in {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range in {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("message %d mismatch", i)
		}
	}
	if _, err := ReadMessage(&buf); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestReadMessageRejectsCorruption(t *testing.T) {
	encode := func(m Message) []byte {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := encode(&Piece{Index: 3, Data: []byte("hello world")})

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), base...)
		b[0] = 'X'
		if _, err := ReadMessage(bytes.NewReader(b)); err == nil {
			t.Error("accepted bad magic")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := append([]byte(nil), base...)
		b[2] = 99
		if _, err := ReadMessage(bytes.NewReader(b)); err == nil {
			t.Error("accepted bad version")
		}
	})
	t.Run("unknown type", func(t *testing.T) {
		b := append([]byte(nil), base...)
		b[3] = byte(maxMsgType) + 10
		if _, err := ReadMessage(bytes.NewReader(b)); err == nil {
			t.Error("accepted unknown type")
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		b := append([]byte(nil), base...)
		b[len(b)-1] ^= 0xff
		if _, err := ReadMessage(bytes.NewReader(b)); err == nil {
			t.Error("accepted corrupted payload (CRC should catch)")
		}
	})
	t.Run("oversized declared length", func(t *testing.T) {
		b := append([]byte(nil), base...)
		binary.BigEndian.PutUint32(b[4:8], MaxPayload+1)
		if _, err := ReadMessage(bytes.NewReader(b)); err == nil {
			t.Error("accepted oversized frame")
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		b := base[:len(base)-3]
		if _, err := ReadMessage(bytes.NewReader(b)); err == nil {
			t.Error("accepted truncated frame")
		}
	})
}

// TestDecoderHostileLengths ensures a frame that declares an inner byte
// string longer than the payload fails cleanly rather than allocating.
func TestDecoderHostileLengths(t *testing.T) {
	var e encoder
	e.u32(0xffffffff) // claimed token length in a Query-like body
	d := decoder{buf: e.buf}
	if b := d.bytes(); b != nil || d.err == nil {
		t.Error("hostile length not rejected")
	}
}

func TestQueryResultQuickRoundTrip(t *testing.T) {
	f := func(seed int64, nPeers uint8, errStr string) bool {
		r := rand.New(rand.NewSource(seed))
		m := &QueryResult{Object: content.NewObjectID(content.CPCode(r.Uint32()), "u", r.Uint32()), Err: errStr}
		for i := 0; i < int(nPeers%50); i++ {
			m.Peers = append(m.Peers, PeerInfo{
				GUID:     id.RandGUID(r),
				Addr:     "h:1",
				NAT:      NATClass(r.Intn(6)),
				ASN:      r.Uint32(),
				Location: r.Uint32(),
			})
		}
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			return false
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestUsageLogQuickRoundTrip: the entry bytes are opaque to the codec, so
// any byte string, empty and non-UTF-8 included, must come back unchanged.
func TestUsageLogQuickRoundTrip(t *testing.T) {
	f := func(entry []byte) bool {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, &UsageLog{Entry: entry}); err != nil {
			return false
		}
		got, err := ReadMessage(&buf)
		if err != nil {
			return false
		}
		return bytes.Equal(got.(*UsageLog).Entry, entry)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for tt := TLogin; tt < maxMsgType; tt++ {
		if s := tt.String(); s == "" || s[:4] == "MSG(" {
			t.Errorf("missing name for message type %d", tt)
		}
	}
	for n := NATNone; n <= NATBlocked; n++ {
		if n.String() == "unknown" {
			t.Errorf("missing name for NAT class %d", n)
		}
	}
	for o := OutcomeCompleted; o <= OutcomeAborted; o++ {
		if o.String() == "unknown" {
			t.Errorf("missing name for outcome %d", o)
		}
	}
}
