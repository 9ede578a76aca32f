package geo

import (
	"fmt"
	"strconv"
)

// SetLevel is the specificity level of a locality set, from most specific
// (the peer's own AS) to least specific (the universal World set). The
// paper's DN selection "begins with peers from the most specific set that
// the querying peer belongs to, and proceeds to less specific sets until
// enough suitable peers are found" (§3.7).
type SetLevel uint32

// Locality set levels, most specific first.
const (
	LevelAS SetLevel = iota
	LevelCountry
	LevelContinent
	LevelWorld
	numLevels
)

// Levels lists all locality levels from most to least specific.
var Levels = []SetLevel{LevelAS, LevelCountry, LevelContinent, LevelWorld}

func (l SetLevel) String() string {
	switch l {
	case LevelAS:
		return "as"
	case LevelCountry:
		return "country"
	case LevelContinent:
		return "continent"
	case LevelWorld:
		return "world"
	}
	return fmt.Sprintf("level-%d", int(l))
}

// Specificity returns a weight proportional to how specific the level is;
// the diversity mechanism of §3.7 selects from a less specific set "with
// probability proportional to the specificity of the set".
func (l SetLevel) Specificity() float64 {
	switch l {
	case LevelAS:
		return 1.0
	case LevelCountry:
		return 0.5
	case LevelContinent:
		return 0.25
	case LevelWorld:
		return 0.125
	}
	return 0
}

// SetKey names one locality set: a level plus a number for the value at
// that level — the ASN, a country or continent code (see codeNumber), or 0
// for World. SetKey is an 8-byte comparable value with no string in it; the
// directory keys its maps on it, so a lookup hashes one machine word.
type SetKey struct {
	Level SetLevel
	Value uint32
}

func (k SetKey) String() string {
	switch k.Level {
	case LevelAS:
		return "as:AS" + strconv.FormatUint(uint64(k.Value), 10)
	case LevelCountry, LevelContinent:
		b := make([]byte, k.Value>>24)
		for i := range b {
			b[i] = byte(k.Value >> (8 * (2 - i)))
		}
		return k.Level.String() + ":" + string(b)
	}
	return k.Level.String() + ":world"
}

// codeNumber maps a country or continent code to its set value: the length
// in bits 24–25 and the bytes below it, so distinct codes get distinct
// numbers. Continent codes have two bytes and atlas country codes two or
// three, so a longer code is a bug that would merge sets; it panics.
func codeNumber(code string) uint32 {
	if len(code) > 3 {
		panic(fmt.Sprintf("geo: locality code %q is longer than three bytes", code))
	}
	v := uint32(len(code)) << 24
	for i := 0; i < len(code); i++ {
		v |= uint32(code[i]) << (8 * (2 - i))
	}
	return v
}

// SetsFor returns the locality sets a peer with the given record belongs to,
// most specific first. A peer is "simultaneously in a universal World set, a
// subset for a large geographical region, a subset for a smaller region, and
// a subset for its specific AS" (§3.7).
func SetsFor(rec Record) [4]SetKey {
	return [4]SetKey{
		{LevelAS, uint32(rec.ASN)},
		{LevelCountry, codeNumber(string(rec.Country))},
		{LevelContinent, codeNumber(string(rec.Continent))},
		{LevelWorld, 0},
	}
}

// NetworkRegion identifies one of the control plane's network regions
// ("defined by proximity to particular groups of servers", §3.7; the
// deployment has fewer than 20).
type NetworkRegion int

// regionOf maps continents to control-plane regions. Large continents are
// split to keep the region count realistic (12 regions).
func RegionOf(rec Record) NetworkRegion {
	switch rec.Continent {
	case NorthAmerica:
		if rec.Country == "US" {
			if rec.Coord.Lon >= -95 {
				return 0 // NA-East
			}
			return 1 // NA-West
		}
		return 2 // NA-Other
	case SouthAmerica:
		return 3
	case Europe:
		if rec.Coord.Lon >= 15 {
			return 5 // EU-East
		}
		return 4 // EU-West
	case Africa:
		return 6
	case Asia:
		switch rec.Country {
		case "CN":
			return 7
		case "IN":
			return 8
		case "JP", "KR", "TW":
			return 9
		default:
			return 10
		}
	case Oceania:
		return 11
	}
	return 10
}

// NumRegions is the number of control-plane network regions produced by
// RegionOf.
const NumRegions = 12

func (r NetworkRegion) String() string {
	names := []string{
		"NA-East", "NA-West", "NA-Other", "SA", "EU-West", "EU-East",
		"AF", "AS-China", "AS-India", "AS-NEA", "AS-Other", "OC",
	}
	if int(r) >= 0 && int(r) < len(names) {
		return names[r]
	}
	return fmt.Sprintf("region-%d", int(r))
}
