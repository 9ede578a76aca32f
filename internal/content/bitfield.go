package content

import "math/bits"

// Bitfield tracks piece possession, in the style of the swarming protocol's
// bitfield exchange ("peers exchange information about which pieces of the
// file they have locally available", §3.4). Bit i set means piece i is held
// and verified.
type Bitfield struct {
	n     int
	words []uint64
}

// NewBitfield creates a bitfield for n pieces, all clear.
func NewBitfield(n int) *Bitfield {
	if n < 0 {
		n = 0
	}
	return &Bitfield{n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of pieces tracked.
func (b *Bitfield) Len() int { return b.n }

// Set marks piece i as held. Out-of-range indices are ignored.
func (b *Bitfield) Set(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.words[i/64] |= 1 << (uint(i) % 64)
}

// Clear unmarks piece i.
func (b *Bitfield) Clear(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.words[i/64] &^= 1 << (uint(i) % 64)
}

// Has reports whether piece i is held.
func (b *Bitfield) Has(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i/64]&(1<<(uint(i)%64)) != 0
}

// Count returns the number of held pieces.
func (b *Bitfield) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Complete reports whether every piece is held.
func (b *Bitfield) Complete() bool { return b.Count() == b.n }

// Missing returns the indices of pieces not held, up to max entries
// (max <= 0 means no limit).
func (b *Bitfield) Missing(max int) []int {
	var out []int
	for i := 0; i < b.n; i++ {
		if !b.Has(i) {
			out = append(out, i)
			if max > 0 && len(out) == max {
				break
			}
		}
	}
	return out
}

// Clone returns a deep copy.
func (b *Bitfield) Clone() *Bitfield {
	c := &Bitfield{n: b.n, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// MarshalBinary encodes the bitfield big-endian, one bit per piece, padded
// to a byte boundary — the wire format of the swarm BITFIELD message.
func (b *Bitfield) MarshalBinary() []byte {
	out := make([]byte, (b.n+7)/8)
	for i := 0; i < b.n; i++ {
		if b.Has(i) {
			out[i/8] |= 1 << (7 - uint(i)%8)
		}
	}
	return out
}

// UnmarshalBitfield decodes a wire bitfield for n pieces. Extra trailing
// bits must be zero.
func UnmarshalBitfield(n int, data []byte) (*Bitfield, bool) {
	if len(data) != (n+7)/8 {
		return nil, false
	}
	b := NewBitfield(n)
	for i := 0; i < n; i++ {
		if data[i/8]&(1<<(7-uint(i)%8)) != 0 {
			b.Set(i)
		}
	}
	// Reject set padding bits: a malformed or malicious encoding.
	for i := n; i < len(data)*8; i++ {
		if data[i/8]&(1<<(7-uint(i)%8)) != 0 {
			return nil, false
		}
	}
	return b, true
}
