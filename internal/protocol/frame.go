// Package protocol defines NetSession's wire protocols: the control-plane
// protocol spoken between peers and connection nodes over a persistent TCP
// connection (§3.4, §3.6), and the swarming protocol spoken between peers,
// which is "not unlike BitTorrent's" (§3.4) but has no incentive mechanism —
// there is deliberately no choke/unchoke machinery.
//
// Every message travels in a frame:
//
//	+-------+---------+------+-----------+----------+---------+
//	| magic | version | type | length(4) | crc32(4) | payload |
//	|  2 B  |   1 B   | 1 B  |   u32 BE  |  u32 BE  |   ...   |
//	+-------+---------+------+-----------+----------+---------+
//
// The CRC covers the payload only; it rejects corrupt frames cheaply before
// any piece-level SHA-256 verification happens.
package protocol

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
)

// Framing constants.
const (
	magic0  = 'N'
	magic1  = 'S'
	Version = 1
	// MaxPayload bounds a frame payload; larger frames are rejected before
	// allocation, protecting servers from hostile peers.
	MaxPayload = 8 << 20

	headerLen = 12
)

// MsgType identifies the message carried in a frame.
type MsgType uint8

// Control-plane message types.
const (
	TLogin MsgType = iota + 1
	TLoginAck
	TQuery
	TQueryResult
	TConnectTo
	TRegister
	TUnregister
	TReAdd
	TReAddReply
	TUsageLog
	TConfigUpdate
	TPing
	TPong

	// Swarm message types.
	THandshake
	THandshakeAck
	TBitfield
	THave
	TRequest
	TPiece
	TCancel
	TGoodbye

	maxMsgType
)

var typeNames = map[MsgType]string{
	TLogin: "LOGIN", TLoginAck: "LOGIN-ACK", TQuery: "QUERY",
	TQueryResult: "QUERY-RESULT", TConnectTo: "CONNECT-TO",
	TRegister: "REGISTER", TUnregister: "UNREGISTER", TReAdd: "RE-ADD",
	TReAddReply: "RE-ADD-REPLY", TUsageLog: "USAGE-LOG", TConfigUpdate: "CONFIG",
	TPing: "PING", TPong: "PONG", THandshake: "HANDSHAKE",
	THandshakeAck: "HANDSHAKE-ACK", TBitfield: "BITFIELD", THave: "HAVE",
	TRequest: "REQUEST", TPiece: "PIECE", TCancel: "CANCEL", TGoodbye: "GOODBYE",
}

func (t MsgType) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MSG(%d)", uint8(t))
}

// Message is one protocol message. Concrete message types live in
// messages.go; all satisfy Message.
type Message interface {
	// Type returns the wire type tag.
	Type() MsgType
	encodeTo(e *encoder)
	decodeFrom(d *decoder)
}

// WriteMessage frames and writes one message. A by-reference tail (a
// Piece's Data) is never copied: header and body go out as net.Buffers, one
// writev on a TCP connection, and the CRC runs over both parts in turn.
func WriteMessage(w io.Writer, m Message) error {
	e := encoder{buf: make([]byte, headerLen, headerLen+64)}
	m.encodeTo(&e)
	n := len(e.buf) - headerLen + len(e.tail)
	if n > MaxPayload {
		return fmt.Errorf("protocol: %v payload %d exceeds max %d", m.Type(), n, MaxPayload)
	}
	hdr := e.buf[:headerLen]
	hdr[0], hdr[1], hdr[2], hdr[3] = magic0, magic1, Version, byte(m.Type())
	binary.BigEndian.PutUint32(hdr[4:8], uint32(n))
	crc := crc32.Update(crc32.ChecksumIEEE(e.buf[headerLen:]), crc32.IEEETable, e.tail)
	binary.BigEndian.PutUint32(hdr[8:12], crc)
	if len(e.tail) == 0 {
		_, err := w.Write(e.buf)
		return err
	}
	bufs := net.Buffers{e.buf, e.tail}
	wrote, err := bufs.WriteTo(w)
	if err == nil && wrote != int64(headerLen+n) {
		err = io.ErrShortWrite // net.Buffers does not check a lying Writer
	}
	return err
}

// ReadMessage reads and decodes one framed message.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return nil, fmt.Errorf("protocol: bad magic %#x%#x", hdr[0], hdr[1])
	}
	if hdr[2] != Version {
		return nil, fmt.Errorf("protocol: unsupported version %d", hdr[2])
	}
	t := MsgType(hdr[3])
	n := binary.BigEndian.Uint32(hdr[4:8])
	if n > MaxPayload {
		return nil, fmt.Errorf("protocol: frame payload %d exceeds max %d", n, MaxPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("protocol: short payload: %w", err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(hdr[8:12]); got != want {
		return nil, fmt.Errorf("protocol: CRC mismatch on %v frame", t)
	}
	m, err := newMessage(t)
	if err != nil {
		return nil, err
	}
	d := decoder{buf: payload}
	m.decodeFrom(&d)
	if d.err != nil {
		return nil, fmt.Errorf("protocol: decode %v: %w", t, d.err)
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("protocol: %v frame has %d trailing bytes", t, len(payload)-d.off)
	}
	return m, nil
}

func newMessage(t MsgType) (Message, error) {
	switch t {
	case TLogin:
		return &Login{}, nil
	case TLoginAck:
		return &LoginAck{}, nil
	case TQuery:
		return &Query{}, nil
	case TQueryResult:
		return &QueryResult{}, nil
	case TConnectTo:
		return &ConnectTo{}, nil
	case TRegister:
		return &Register{}, nil
	case TUnregister:
		return &Unregister{}, nil
	case TReAdd:
		return &ReAdd{}, nil
	case TReAddReply:
		return &ReAddReply{}, nil
	case TUsageLog:
		return &UsageLog{}, nil
	case TConfigUpdate:
		return &ConfigUpdate{}, nil
	case TPing:
		return &Ping{}, nil
	case TPong:
		return &Pong{}, nil
	case THandshake:
		return &Handshake{}, nil
	case THandshakeAck:
		return &HandshakeAck{}, nil
	case TBitfield:
		return &BitfieldMsg{}, nil
	case THave:
		return &Have{}, nil
	case TRequest:
		return &Request{}, nil
	case TPiece:
		return &Piece{}, nil
	case TCancel:
		return &Cancel{}, nil
	case TGoodbye:
		return &Goodbye{}, nil
	}
	return nil, fmt.Errorf("protocol: unknown message type %d", uint8(t))
}
