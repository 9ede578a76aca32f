package logpipe

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/bits"
)

// gunzipReader decodes a gzip stream (RFC 1952 members of RFC 1951 DEFLATE
// data) for every reader of log data: the segment reader and the ingest
// endpoint's batch decode. It reads its source in chunks into a 64-bit bit
// buffer refilled eight bytes at a time, decodes through two-level Huffman
// tables, and copies matches eight bytes at a time inside a linear window
// that slides its last 32 KiB forward when it fills — where compress/gzip
// pulls its input one byte at a time and copies every output byte through a
// ring. compress/gzip still writes segments, and tests hold the two readers
// to one contract: on every input this reader returns the bytes
// compress/gzip.Reader returns when read to the end, then the same verdict —
// a clean io.EOF, or an error for damage (truncation, a bad header, a
// corrupt block, a checksum or size mismatch, trailing garbage). A reader
// holds its window and one input chunk, never a whole stream, and reset
// reuses both, so a reader allocates only on its first use.
type gunzipReader struct {
	src    io.Reader
	srcErr error // what ended src; nil while it may hold more
	in     []byte
	ip, ie int    // in[ip:ie] is read from src but not yet in bits
	bits   uint64 // the next nb stream bits, least significant first
	nb     uint   // bits above nb are the stream's following bits, or zero

	win    []byte
	rp, wp int // win[rp:wp] is decoded but not yet returned by Read
	mstart int // where the current member's output starts in win; negative once slid past

	state     int
	final     bool // the current block is the member's last
	stored    int  // bytes left in a stored block
	crc, size uint32
	err       error

	lt, dt    *huffTable // the current block's literal/length and distance codes
	eobLen    uint       // code length of the end-of-block symbol in lt
	lit, dist huffTable  // a dynamic block's codes
	lens      [maxLitCodes + maxDistCodes]uint8
}

// The decoder's states: what the next step reads.
const (
	stFirstHeader = iota // the first member header; a stream must hold one
	stNextHeader         // another member header, or the clean end of the stream
	stBlock              // a block header
	stStored             // a stored block's data
	stCodes              // a Huffman block's symbols
	stTrailer            // a member's CRC-32 and ISIZE
)

const (
	maxDist      = 32 << 10 // DEFLATE's longest match distance
	maxMatch     = 258      // DEFLATE's longest match
	winSize      = 64 << 10 // maxDist of history plus room to decode ahead
	inChunk      = 16 << 10
	maxLitCodes  = 286
	maxDistCodes = 30
	litRootBits  = 10
	distRootBits = 8
	clenRootBits = 7 // code-length codes are at most 7 bits: one level
)

var (
	errGzipHeader   = errors.New("gzip: invalid header")
	errGzipChecksum = errors.New("gzip: invalid checksum")
	errFlateCorrupt = errors.New("flate: corrupt input")
)

// reset points the reader at the start of a new gzip stream.
func (z *gunzipReader) reset(src io.Reader) {
	if z.win == nil {
		z.in = make([]byte, inChunk)
		z.win = make([]byte, winSize)
	}
	z.src, z.srcErr = src, nil
	z.ip, z.ie, z.bits, z.nb = 0, 0, 0, 0
	z.rp, z.wp, z.mstart = 0, 0, 0
	z.state, z.err = stFirstHeader, nil
}

// Read returns decoded bytes; once every byte before the end or the damage
// is returned, it returns io.EOF or the damage.
func (z *gunzipReader) Read(p []byte) (int, error) {
	for z.rp == z.wp {
		if z.err != nil {
			return 0, z.err
		}
		z.step()
	}
	n := copy(p, z.win[z.rp:z.wp])
	z.rp += n
	return n, nil
}

// step decodes the next part of the stream: a header, a trailer, a block
// header, or block data until the window is full or the block ends. Read
// calls it once everything decoded before has been returned, so the window
// can slide.
func (z *gunzipReader) step() {
	if z.wp > len(z.win)-maxMatch-8 {
		n := copy(z.win, z.win[z.wp-maxDist:z.wp])
		z.mstart -= z.wp - n
		z.rp, z.wp = n, n
	}
	start := z.wp
	switch z.state {
	case stFirstHeader, stNextHeader:
		z.err = z.header()
	case stBlock:
		z.err = z.block()
	case stStored:
		z.err = z.storedData()
	case stCodes:
		z.err = z.codes()
	case stTrailer:
		z.err = z.trailer()
	}
	z.crc = crc32.Update(z.crc, crc32.IEEETable, z.win[start:z.wp])
	z.size += uint32(z.wp - start)
}

// more reads the next input chunk once the current one is used up, and
// reports whether the source had one.
func (z *gunzipReader) more() bool {
	for z.srcErr == nil {
		n, err := z.src.Read(z.in)
		z.ip, z.ie, z.srcErr = 0, n, err
		if n > 0 {
			return true
		}
	}
	return false
}

// need loads input into the bit buffer until it holds n (at most 56) bits,
// and reports whether the stream had them.
func (z *gunzipReader) need(n uint) bool {
	for z.nb < n {
		if z.ip == z.ie && !z.more() {
			return false
		}
		z.bits |= uint64(z.in[z.ip]) << z.nb
		z.ip++
		z.nb += 8
	}
	return true
}

// shortErr is the error for a stream that ends before its data does.
func (z *gunzipReader) shortErr() error {
	if z.srcErr == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return z.srcErr
}

func (z *gunzipReader) drop(n uint) {
	z.bits >>= n
	z.nb -= n
}

// alignByte drops the bits left in the current byte.
func (z *gunzipReader) alignByte() { z.drop(z.nb & 7) }

// headerByte reads one header byte into the header's CRC, which z.crc holds
// until the member's data begins.
func (z *gunzipReader) headerByte() (byte, error) {
	if !z.need(8) {
		return 0, z.shortErr()
	}
	b := byte(z.bits)
	z.drop(8)
	z.crc = ^(crc32.IEEETable[byte(^z.crc)^b] ^ ^z.crc>>8)
	return b, nil
}

// header reads a member header. Between members, a stream that simply ends
// ends cleanly.
func (z *gunzipReader) header() error {
	const (
		flagHdrCrc  = 1 << 1
		flagExtra   = 1 << 2
		flagName    = 1 << 3
		flagComment = 1 << 4
	)
	if z.state == stNextHeader && !z.need(8) && z.srcErr == io.EOF {
		return io.EOF
	}
	z.crc = 0
	var h [10]byte
	for i := range h {
		b, err := z.headerByte()
		if err != nil {
			return err
		}
		h[i] = b
	}
	if h[0] != 0x1f || h[1] != 0x8b || h[2] != 8 {
		return errGzipHeader
	}
	flags := h[3]
	if flags&flagExtra != 0 {
		lo, err := z.headerByte()
		if err != nil {
			return err
		}
		hi, err := z.headerByte()
		if err != nil {
			return err
		}
		for n := int(lo) | int(hi)<<8; n > 0; n-- {
			if _, err := z.headerByte(); err != nil {
				return err
			}
		}
	}
	for _, f := range []byte{flagName, flagComment} {
		if flags&f == 0 {
			continue
		}
		// compress/gzip reads a name or comment into a 512-byte buffer,
		// terminator included, and refuses a longer one.
		for i := 0; ; i++ {
			if i == 512 {
				return errGzipHeader
			}
			b, err := z.headerByte()
			if err != nil {
				return err
			}
			if b == 0 {
				break
			}
		}
	}
	if flags&flagHdrCrc != 0 {
		if !z.need(16) {
			return z.shortErr()
		}
		sum := uint16(z.bits)
		z.drop(16)
		if sum != uint16(z.crc) {
			return errGzipHeader
		}
	}
	z.crc, z.size = 0, 0
	z.mstart = z.wp
	z.state = stBlock
	return nil
}

// trailer checks a member's CRC-32 and ISIZE against its data.
func (z *gunzipReader) trailer() error {
	z.alignByte()
	if !z.need(32) {
		return z.shortErr()
	}
	sum := uint32(z.bits)
	z.drop(32)
	if !z.need(32) {
		return z.shortErr()
	}
	size := uint32(z.bits)
	z.drop(32)
	if sum != z.crc || size != z.size {
		return errGzipChecksum
	}
	z.state = stNextHeader
	return nil
}

// block reads a block header and sets up the block's data.
func (z *gunzipReader) block() error {
	if !z.need(3) {
		return z.shortErr()
	}
	z.final = z.bits&1 != 0
	typ := z.bits >> 1 & 3
	z.drop(3)
	switch typ {
	case 0:
		z.alignByte()
		if !z.need(32) {
			return z.shortErr()
		}
		n, nn := uint16(z.bits), uint16(z.bits>>16)
		z.drop(32)
		if nn != ^n {
			return errFlateCorrupt
		}
		z.stored = int(n)
		z.state = stStored
	case 1:
		z.lt, z.dt, z.eobLen = &fixedLit, &fixedDist, 7
		z.state = stCodes
	case 2:
		if err := z.dynamicCodes(); err != nil {
			return err
		}
		z.lt, z.dt, z.eobLen = &z.lit, &z.dist, uint(z.lens[256])
		z.state = stCodes
	default:
		return errFlateCorrupt
	}
	return nil
}

// endBlock moves on to the next block, or to the trailer after the last.
func (z *gunzipReader) endBlock() {
	z.state = stBlock
	if z.final {
		z.state = stTrailer
	}
}

// storedData copies a stored block's bytes into the window, as many as it
// has room for; bytes read before a truncation are kept.
func (z *gunzipReader) storedData() error {
	for z.stored > 0 && z.wp < len(z.win) {
		if z.nb > 0 {
			// Whole bytes loaded into the bit buffer come first.
			z.win[z.wp] = byte(z.bits)
			z.drop(8)
			z.wp++
			z.stored--
			continue
		}
		z.bits = 0 // drop the look-ahead bits of the bytes copied below
		if z.ip == z.ie && !z.more() {
			return z.shortErr()
		}
		n := copy(z.win[z.wp:min(len(z.win), z.wp+z.stored)], z.in[z.ip:z.ie])
		z.ip += n
		z.wp += n
		z.stored -= n
	}
	if z.stored == 0 {
		z.endBlock()
	}
	return nil
}

var clenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// dynamicCodes reads a dynamic block's code lengths into z.lit and z.dist,
// refusing what compress/flate refuses: more than 286 literal/length or 30
// distance codes, a repeat with nothing to repeat or past the last length,
// and over-subscribed or incomplete codes.
func (z *gunzipReader) dynamicCodes() error {
	if !z.need(14) {
		return z.shortErr()
	}
	nlit := int(z.bits&31) + 257
	ndist := int(z.bits>>5&31) + 1
	nclen := int(z.bits>>10&15) + 4
	z.drop(14)
	if nlit > maxLitCodes || ndist > maxDistCodes {
		return errFlateCorrupt
	}
	var clens [19]uint8
	for _, sym := range clenOrder[:nclen] {
		if !z.need(3) {
			return z.shortErr()
		}
		clens[sym] = uint8(z.bits & 7)
		z.drop(3)
	}
	// The code-length code borrows the literal table, as compress/flate's does.
	if !z.lit.build(clens[:], clenSyms[:], clenRootBits) {
		return errFlateCorrupt
	}
	lens := z.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		z.need(7) // a shorter code may still fit in what is left
		e := z.lit.root[z.bits&(1<<clenRootBits-1)]
		if e&entSpecial != 0 {
			return errFlateCorrupt
		}
		n := uint(e & 15)
		if n > z.nb {
			return z.shortErr()
		}
		z.drop(n)
		sym := e >> 16
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var rep int
		var extra uint
		var val uint8
		switch sym {
		case 16:
			if i == 0 {
				return errFlateCorrupt
			}
			rep, extra, val = 3, 2, lens[i-1]
		case 17:
			rep, extra = 3, 3
		default:
			rep, extra = 11, 7
		}
		if !z.need(extra) {
			return z.shortErr()
		}
		rep += int(z.bits & (1<<extra - 1))
		z.drop(extra)
		if i+rep > len(lens) {
			return errFlateCorrupt
		}
		for end := i + rep; i < end; i++ {
			lens[i] = val
		}
	}
	if !z.lit.build(lens[:nlit], litSyms[:], litRootBits) || !z.dist.build(lens[nlit:], distSyms[:], distRootBits) {
		return errFlateCorrupt
	}
	return nil
}

// codes decodes a Huffman block's symbols into the window until the block
// ends or the window is full. While eight input bytes are at hand it refills
// the bit buffer to at least 56 bits with one load, enough for a whole
// length/distance pair; near the end of the input it loads byte by byte, and
// every code and its extra bits are checked against the bits the stream
// still holds, so the symbols before a truncation are all decoded.
func (z *gunzipReader) codes() error {
	lt, dt, eob := z.lt, z.dt, z.eobLen
	in, win := z.in[:z.ie], z.win
	bits, nb, ip, wp := z.bits, z.nb, z.ip, z.wp
	var err error
	for wp <= len(win)-maxMatch-8 {
		if nb < 48 {
			if ip+8 <= len(in) {
				bits |= binary.LittleEndian.Uint64(in[ip:]) << nb
				ip += int(63-nb) >> 3
				nb |= 56
			} else {
				z.bits, z.nb, z.ip = bits, nb, ip
				z.need(48)
				in, bits, nb, ip = z.in[:z.ie], z.bits, z.nb, z.ip
			}
		}
		e := lt.root[bits&(1<<litRootBits-1)]
		if e&entLink != 0 {
			e = lt.sub[e>>16+uint32(bits>>litRootBits)&lt.subMask]
		}
		// compress/flate will not decode a literal/length code from fewer
		// bits than the end-of-block code needs, so neither does this.
		n, x := uint(e&15), uint(e>>4&15)
		if n+x > nb || eob > nb {
			err = z.shortErr()
			break
		}
		if e&entLiteral != 0 {
			bits >>= n
			nb -= n
			win[wp] = byte(e >> 16)
			wp++
			continue
		}
		if e&entSpecial != 0 {
			if e&entEOB == 0 {
				err = errFlateCorrupt
				break
			}
			bits >>= n
			nb -= n
			z.endBlock()
			break
		}
		length := int(e>>16) + int(bits>>n&(1<<x-1))
		bits >>= n + x
		nb -= n + x

		e = dt.root[bits&(1<<distRootBits-1)]
		if e&entLink != 0 {
			e = dt.sub[e>>16+uint32(bits>>distRootBits)&dt.subMask]
		}
		if e&entSpecial != 0 {
			err = errFlateCorrupt
			break
		}
		n, x = uint(e&15), uint(e>>4&15)
		if n+x > nb {
			err = z.shortErr()
			break
		}
		dist := int(e>>16) + int(bits>>n&(1<<x-1))
		bits >>= n + x
		nb -= n + x
		if dist > wp-z.mstart {
			err = errFlateCorrupt
			break
		}
		from := wp - dist
		if dist >= 8 {
			// Each 8-byte load reads bytes already written, and the
			// overshoot past wp+length lands in the window's slack.
			for i := 0; i < length; i += 8 {
				binary.LittleEndian.PutUint64(win[wp+i:], binary.LittleEndian.Uint64(win[from+i:]))
			}
		} else {
			for i := 0; i < length; i++ {
				win[wp+i] = win[from+i]
			}
		}
		wp += length
	}
	z.bits, z.nb, z.ip, z.wp = bits, nb, ip, wp
	return err
}

// huffTable decodes one prefix code. A root entry is indexed by the next
// rootBits stream bits (litRootBits, distRootBits or clenRootBits); a code
// longer than that is found through a link entry into sub, whose tables are
// each indexed by the bits that follow. An entry holds what a symbol
// decodes to, so that the hot loop needs no second lookup: its code length
// in bits 0-3, the number of extra bits that follow the code in bits 4-7,
// the ent flags in bits 8-11, and in bits 16-31 a literal byte, a base
// length or distance, a code-length symbol, or a link's offset into sub.
type huffTable struct {
	root    [1 << litRootBits]uint32
	sub     []uint32
	subMask uint32
}

const (
	entLiteral = 1 << 8  // a literal byte
	entSpecial = 1 << 9  // the end of the block, or no code or symbol at all
	entEOB     = 1 << 10 // with entSpecial: the end of the block
	entLink    = 1 << 11 // a link to a second-level table
)

// Symbols as entries: litSyms for the literal/length code (286 and 287 are
// no length), distSyms for the distance code (30 and 31 are no distance),
// clenSyms for the code-length code.
var litSyms, distSyms, clenSyms = symEntries()

func symEntries() (lit [288]uint32, dist [32]uint32, clen [19]uint32) {
	lenBase := [29]uint32{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lenExtra := [29]uint32{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase := [30]uint32{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	for i := range lit {
		switch {
		case i < 256:
			lit[i] = uint32(i)<<16 | entLiteral
		case i == 256:
			lit[i] = entSpecial | entEOB
		case i-257 < len(lenBase):
			lit[i] = lenBase[i-257]<<16 | lenExtra[i-257]<<4
		default:
			lit[i] = entSpecial
		}
	}
	for i := range dist {
		dist[i] = entSpecial
		if i < len(distBase) {
			dist[i] = distBase[i]<<16 | uint32(max(i-2, 0)/2)<<4
		}
	}
	for i := range clen {
		clen[i] = uint32(i) << 16
	}
	return lit, dist, clen
}

// build makes t decode the canonical code with the given code lengths, each
// symbol to its entry in syms. Like compress/flate it accepts only complete
// codes, a code of one 1-bit symbol, and no codes at all; with the last
// every lookup finds no code.
func (t *huffTable) build(lens []uint8, syms []uint32, rootBits uint) bool {
	var count [16]int
	maxLen := 0
	for _, l := range lens {
		count[l]++
		maxLen = max(maxLen, int(l))
	}
	root := t.root[:1<<rootBits]
	for i := range root {
		root[i] = entSpecial
	}
	t.sub = t.sub[:0]
	if maxLen == 0 {
		return true
	}
	count[0] = 0
	var next [16]int
	code := 0
	for l := 1; l <= maxLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	if end := code + count[maxLen]; end != 1<<maxLen && !(end == 1 && maxLen == 1) {
		return false
	}
	var subBits uint
	if maxLen > int(rootBits) {
		// Every code longer than rootBits starts with a root prefix at or
		// past link, and every such prefix starts one.
		subBits = uint(maxLen) - rootBits
		link := next[rootBits+1] >> 1
		size := (1<<rootBits - link) << subBits
		if cap(t.sub) < size {
			t.sub = make([]uint32, size)
		}
		t.sub = t.sub[:size]
		for p := link; p < 1<<rootBits; p++ {
			root[reverse(p, rootBits)] = uint32(p-link)<<subBits<<16 | entLink
		}
	}
	t.subMask = 1<<subBits - 1
	for sym, l := range lens {
		if l == 0 {
			continue
		}
		n := uint(l)
		r := reverse(next[n], n)
		next[n]++
		e := syms[sym] | uint32(n)
		if n <= rootBits {
			for i := r; i < len(root); i += 1 << n {
				root[i] = e
			}
			continue
		}
		sub := t.sub[root[r&(1<<rootBits-1)]>>16:][:1<<subBits]
		for i := r >> rootBits; i < len(sub); i += 1 << (n - rootBits) {
			sub[i] = e
		}
	}
	return true
}

// reverse returns the low n bits of code in reverse order: DEFLATE packs
// Huffman codes most significant bit first into a stream read from the least
// significant bit.
func reverse(code int, n uint) int {
	return int(bits.Reverse16(uint16(code)) >> (16 - n))
}

// fixedLit and fixedDist are the fixed codes of RFC 1951 §3.2.6; the
// distance code's symbols 30 and 31 decode but are refused as corrupt.
var fixedLit, fixedDist = fixedCodes()

func fixedCodes() (lit, dist huffTable) {
	var lens [288]uint8
	for i := range lens {
		switch {
		case i < 144:
			lens[i] = 8
		case i < 256:
			lens[i] = 9
		case i < 280:
			lens[i] = 7
		default:
			lens[i] = 8
		}
	}
	lit.build(lens[:], litSyms[:], litRootBits)
	var dlens [32]uint8
	for i := range dlens {
		dlens[i] = 5
	}
	dist.build(dlens[:], distSyms[:], distRootBits)
	return lit, dist
}
