package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"

	"netsession/internal/content"
	"netsession/internal/id"
)

// encoder accumulates a message payload. It never fails; size limits are
// enforced at the framing layer.
type encoder struct {
	buf []byte
	// tail is the message's last field, a byte string WriteMessage sends
	// from the caller's slice instead of copying it into buf, and outside
	// the frame CRC.
	tail []byte
}

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

func (e *encoder) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) bytes(v []byte) {
	e.u32(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// ref encodes a length-prefixed byte string by reference. It must be the
// message's last field: only its length goes into buf, and so under the CRC.
func (e *encoder) ref(v []byte) {
	e.u32(uint32(len(v)))
	e.tail = v
}

func (e *encoder) str(v string) { e.bytes([]byte(v)) }

func (e *encoder) guid(g id.GUID)              { e.buf = append(e.buf, g[:]...) }
func (e *encoder) secondary(s id.Secondary)    { e.buf = append(e.buf, s[:]...) }
func (e *encoder) objectID(o content.ObjectID) { e.buf = append(e.buf, o[:]...) }

// decoder consumes a message payload with sticky error semantics: after the
// first failure every further read returns zero values, and the error is
// checked once at the end.
type decoder struct {
	buf []byte
	off int
	err error
	// tailAt is where a ref field's bytes start, the end of what the frame
	// CRC covers; zero when the message has no ref field.
	tailAt int
}

var errShort = errors.New("payload truncated")

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.err = errShort
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) boolean() bool { return d.u8() != 0 }

func (d *decoder) bytes() []byte {
	b := d.span(d.u32())
	if d.err != nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// ref decodes a length-prefixed byte string without copying it: the result
// aliases the payload, which ReadMessage allocates for one message alone.
// Its capacity is capped, so an append cannot spill into the payload. It is
// the counterpart of encoder.ref: the frame CRC stops where its bytes start.
func (d *decoder) ref() []byte {
	n := d.u32()
	if d.err == nil {
		d.tailAt = d.off
	}
	return d.span(n)
}

// span takes the n bytes of a length-prefixed byte string whose length was
// just read.
func (d *decoder) span(n uint32) []byte {
	if d.err != nil {
		return nil
	}
	if int(n) > len(d.buf)-d.off {
		d.err = fmt.Errorf("declared length %d exceeds remaining %d bytes", n, len(d.buf)-d.off)
		return nil
	}
	b := d.take(int(n))
	return b[:n:n]
}

func (d *decoder) str() string { return string(d.span(d.u32())) }

func (d *decoder) guid() (g id.GUID) {
	copy(g[:], d.take(len(g)))
	return g
}

func (d *decoder) secondary() (s id.Secondary) {
	copy(s[:], d.take(len(s)))
	return s
}

func (d *decoder) objectID() (o content.ObjectID) {
	copy(o[:], d.take(len(o)))
	return o
}
