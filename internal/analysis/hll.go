package analysis

import (
	"fmt"
	"math"
	"math/bits"
)

// HLL is a HyperLogLog cardinality sketch. The sketched Tally uses it to
// track the active-GUID and distinct-URL populations in fixed memory: the
// paper's data set has 26M GUIDs, so an exact set is precisely the kind of
// state a bounded-memory live pass cannot afford. With 2^14 registers the
// standard error is 1.04/sqrt(16384) ~ 0.81%, leaving real headroom inside
// the 2% budget the tests hold the sketch to against the exact sets.
//
// The zero value is not usable; call NewHLL. Methods are not safe for
// concurrent use — each tally shard owns its own sketch and merges at
// snapshot time.
type HLL struct {
	registers []uint8
}

const (
	hllP = 14        // register-index bits
	hllM = 1 << hllP // number of registers
	// hllMaxRank is the largest value Add can store: the 64-hllP stream bits
	// all zero ranks one past the stream length.
	hllMaxRank = 64 - hllP + 1
)

// NewHLL creates an empty sketch.
func NewHLL() *HLL {
	return &HLL{registers: make([]uint8, hllM)}
}

// Add observes one element.
func (h *HLL) Add(s string) {
	// FNV-1a alone disperses poorly in its upper bits for short, similar
	// strings (GUIDs share long common prefixes), which would funnel most
	// elements into a handful of registers. Two rounds of the fmix64
	// finalizer restore the avalanche — one round still leaves measurable
	// clumping on sequential inputs — while staying deterministic across
	// processes.
	x := fmix64(fmix64(fnv64a(s)))
	idx := x >> (64 - hllP)
	// Rank of the first set bit in the remaining stream, 1-based; an
	// all-zero remainder ranks one past the stream length.
	rank := uint8(bits.LeadingZeros64(x<<hllP|1<<(hllP-1))) + 1
	if rank > h.registers[idx] {
		h.registers[idx] = rank
	}
}

// Estimate returns the estimated cardinality, with the standard small-range
// (linear counting) correction.
func (h *HLL) Estimate() float64 {
	var sum float64
	zeros := 0
	for _, r := range h.registers {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	const alpha = 0.7213 / (1 + 1.079/float64(hllM)) // bias constant for m >= 128
	e := alpha * hllM * hllM / sum
	if e <= 2.5*hllM && zeros > 0 {
		return float64(hllM) * math.Log(float64(hllM)/float64(zeros))
	}
	return e
}

// Merge unions another sketch into this one (register-wise max), so sketches
// built independently — per summarizer shard, or per control-plane node in a
// fleet — combine without double-counting shared elements.
func (h *HLL) Merge(o *HLL) {
	for i, r := range o.registers {
		if r > h.registers[i] {
			h.registers[i] = r
		}
	}
}

// Bytes serializes the sketch; the analytics endpoint ships it so a fleet
// view can union GUID populations across control-plane nodes.
func (h *HLL) Bytes() []byte {
	return append([]byte(nil), h.registers...)
}

// HLLFromBytes restores a sketch serialized with Bytes. A nil or empty input
// yields an empty sketch; any other length is an error, and so is a register
// no Add could have written — the bytes arrive in scraped documents, and a
// register of 64 or more would drive Estimate's 1/2^r term to +Inf and
// collapse the whole estimate.
func HLLFromBytes(b []byte) (*HLL, error) {
	if len(b) == 0 {
		return NewHLL(), nil
	}
	if len(b) != hllM {
		return nil, fmt.Errorf("analysis: HLL sketch has %d registers, want %d", len(b), hllM)
	}
	for i, r := range b {
		if r > hllMaxRank {
			return nil, fmt.Errorf("analysis: HLL register %d holds %d, above the maximum rank %d", i, r, hllMaxRank)
		}
	}
	return &HLL{registers: append([]byte(nil), b...)}, nil
}

// fnv64a is the 64-bit FNV-1a hash. It is stable across processes and
// architectures, which the fleet-merge path depends on: two CPs hashing the
// same GUID must set the same register.
func fnv64a(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// fmix64 is the MurmurHash3 64-bit finalizer: a fixed bijective mixer with
// full avalanche, used to spread fnv64a output evenly over the registers.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
