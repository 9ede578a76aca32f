package analysis

import (
	"encoding/json"
	"math"

	"netsession/internal/accounting"
)

// DecodeDownload parses one JSON download record into d. Its result and its
// error-or-nil are those of json.Unmarshal into a zero OfflineDownload, on
// every input: a single-pass scanner decodes the lines this module's writers
// produce, and any line it does not fully validate goes to encoding/json
// instead. Every reader of download records decodes through here.
func DecodeDownload(line []byte, d *OfflineDownload) error {
	*d = OfflineDownload{}
	if decodeFast(line, d) {
		return nil
	}
	*d = OfflineDownload{}
	return json.Unmarshal(line, d)
}

// DecodesFast reports whether DecodeDownload decodes line without falling
// back to encoding/json. It holds for every line this module's writers emit;
// their tests pin that, so a schema change cannot quietly slow the read path.
func DecodesFast(line []byte) bool {
	var d OfflineDownload
	return decodeFast(line, &d)
}

// decodeFast decodes the subset of JSON on which its result provably equals
// encoding/json's: one compact object with no whitespace, each key an exact
// field tag at most once, strings of printable ASCII without escapes, and
// integers without sign quirks, leading zeros, fractions, exponents or more
// than 18 digits. It reports false on anything else, leaving d in an
// unspecified state.
func decodeFast(line []byte, d *OfflineDownload) bool {
	s := scanner{b: line}
	ok := s.object(func(key []byte) (uint32, bool) {
		switch string(key) {
		case "guid":
			return 1 << 0, s.text(&d.GUID)
		case "ip":
			return 1 << 1, s.text(&d.IP)
		case "country":
			return 1 << 2, s.text(&d.Country)
		case "asn":
			return 1 << 3, s.uint32(&d.ASN)
		case "region":
			return 1 << 4, s.text(&d.Region)
		case "object":
			return 1 << 5, s.text(&d.Object)
		case "urlHash":
			return 1 << 6, s.text(&d.URLHash)
		case "cp":
			return 1 << 7, s.uint32(&d.CP)
		case "size":
			return 1 << 8, s.int64(&d.Size)
		case "p2pEnabled":
			return 1 << 9, s.bool(&d.P2PEnabled)
		case "startMs":
			return 1 << 10, s.int64(&d.StartMs)
		case "endMs":
			return 1 << 11, s.int64(&d.EndMs)
		case "bytesInfra":
			return 1 << 12, s.int64(&d.BytesInfra)
		case "bytesPeers":
			return 1 << 13, s.int64(&d.BytesPeers)
		case "outcome":
			return 1 << 14, s.text(&d.Outcome)
		case "peersReturned":
			return 1 << 15, s.int(&d.Peers)
		case "fromPeers":
			return 1 << 16, s.contributions(&d.FromPeers)
		case "stream":
			d.Stream = new(accounting.StreamStats)
			return 1 << 17, s.stream(d.Stream)
		}
		return 0, false
	})
	return ok && s.i == len(s.b)
}

// contributions decodes a non-null array of contribution objects; an empty
// array is an empty, non-nil slice, as encoding/json makes it.
func (s *scanner) contributions(out *[]OfflineContribution) bool {
	if !s.lit('[') {
		return false
	}
	*out = make([]OfflineContribution, 0, 2)
	if s.lit(']') {
		return true
	}
	for {
		var c OfflineContribution
		ok := s.object(func(key []byte) (uint32, bool) {
			switch string(key) {
			case "guid":
				return 1 << 0, s.text(&c.GUID)
			case "country":
				return 1 << 1, s.text(&c.Country)
			case "asn":
				return 1 << 2, s.uint32(&c.ASN)
			case "region":
				return 1 << 3, s.text(&c.Region)
			case "bytes":
				return 1 << 4, s.int64(&c.Bytes)
			}
			return 0, false
		})
		if !ok {
			return false
		}
		*out = append(*out, c)
		if s.lit(']') {
			return true
		}
		if !s.lit(',') {
			return false
		}
	}
}

// stream decodes a non-null streaming sub-record.
func (s *scanner) stream(st *accounting.StreamStats) bool {
	return s.object(func(key []byte) (uint32, bool) {
		switch string(key) {
		case "bitrateBps":
			return 1 << 0, s.int64(&st.BitrateBps)
		case "startupDelayMs":
			return 1 << 1, s.int64(&st.StartupDelayMs)
		case "rebufferCount":
			return 1 << 2, s.int64(&st.RebufferCount)
		case "rebufferMs":
			return 1 << 3, s.int64(&st.RebufferMs)
		case "deadlineMisses":
			return 1 << 4, s.int64(&st.DeadlineMisses)
		case "piecesPlayed":
			return 1 << 5, s.int64(&st.PiecesPlayed)
		case "piecesTotal":
			return 1 << 6, s.int64(&st.PiecesTotal)
		case "edgeRescueBytes":
			return 1 << 7, s.int64(&st.EdgeRescueBytes)
		}
		return 0, false
	})
}

// scanner walks one line left to right; every method consumes what it
// accepted and reports false on anything outside the fast subset.
type scanner struct {
	b []byte
	i int
}

// lit consumes the byte c.
func (s *scanner) lit(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// object consumes {"key":value,...}, calling field with each key once the
// scanner stands on its value. field consumes the value and returns the
// key's bit among the object's fields, so a repeated key is refused.
func (s *scanner) object(field func(key []byte) (bit uint32, ok bool)) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	var seen uint32
	for {
		key, ok := s.str()
		if !ok || !s.lit(':') {
			return false
		}
		bit, ok := field(key)
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if s.lit('}') {
			return true
		}
		if !s.lit(',') {
			return false
		}
	}
}

// str consumes a string of printable ASCII without escapes and returns its
// contents, which alias the line.
func (s *scanner) str() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

func (s *scanner) text(p *string) bool {
	raw, ok := s.str()
	*p = string(raw)
	return ok
}

func (s *scanner) bool(p *bool) bool {
	rest := s.b[s.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		*p, s.i = true, s.i+4
	case len(rest) >= 5 && string(rest[:5]) == "false":
		*p, s.i = false, s.i+5
	default:
		return false
	}
	return true
}

// int64 consumes -?(0|[1-9][0-9]*) of at most 18 digits, which cannot
// overflow. "-0" is refused: encoding/json rejects it for unsigned fields.
// A fraction or exponent after the digits is refused by the caller, which
// finds neither ',' nor '}' nor ']' there.
func (s *scanner) int64(p *int64) bool {
	neg := s.lit('-')
	start := s.i
	var n int64
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		n = n*10 + int64(s.b[s.i]-'0')
		s.i++
	}
	digits := s.i - start
	if digits == 0 || digits > 18 || (s.b[start] == '0' && (digits > 1 || neg)) {
		return false
	}
	if neg {
		n = -n
	}
	*p = n
	return true
}

func (s *scanner) uint32(p *uint32) bool {
	var n int64
	if !s.int64(&n) || n < 0 || n > math.MaxUint32 {
		return false
	}
	*p = uint32(n)
	return true
}

func (s *scanner) int(p *int) bool {
	var n int64
	if !s.int64(&n) || int64(int(n)) != n {
		return false
	}
	*p = int(n)
	return true
}
