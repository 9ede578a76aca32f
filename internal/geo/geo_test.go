package geo

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func testAtlas(t testing.TB) *Atlas {
	t.Helper()
	cfg := DefaultAtlasConfig()
	cfg.TailCountries = 20 // keep tests fast
	return GenerateAtlas(cfg)
}

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		name string
		a, b Coordinates
		want float64 // km
		tol  float64
	}{
		{"zero", Coordinates{40, -75}, Coordinates{40, -75}, 0, 0.001},
		{"philadelphia-to-sf", Coordinates{39.95, -75.17}, Coordinates{37.77, -122.42}, 4023, 50},
		{"london-to-sydney", Coordinates{51.51, -0.13}, Coordinates{-33.87, 151.21}, 16994, 150},
		{"equator-degree", Coordinates{0, 0}, Coordinates{0, 1}, 111.2, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := DistanceKm(c.a, c.b)
			if math.Abs(got-c.want) > c.tol {
				t.Errorf("DistanceKm(%v,%v) = %.1f, want %.1f ± %.1f", c.a, c.b, got, c.want, c.tol)
			}
		})
	}
}

func TestDistanceProperties(t *testing.T) {
	symmetric := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Coordinates{clampLat(lat1), wrapLon(lon1)}
		b := Coordinates{clampLat(lat2), wrapLon(lon2)}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-6 && d1 >= 0 && d1 <= 2*math.Pi*earthRadiusKm/2+1
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error(err)
	}
}

func TestGenerateAtlasDeterministic(t *testing.T) {
	a1 := testAtlas(t)
	a2 := testAtlas(t)
	if len(a1.Locations) != len(a2.Locations) || len(a1.ASes) != len(a2.ASes) {
		t.Fatalf("atlas generation not deterministic: %d/%d locations, %d/%d ASes",
			len(a1.Locations), len(a2.Locations), len(a1.ASes), len(a2.ASes))
	}
	for i := range a1.Locations {
		if a1.Locations[i] != a2.Locations[i] {
			t.Fatalf("location %d differs: %+v vs %+v", i, a1.Locations[i], a2.Locations[i])
		}
	}
}

func TestAtlasCoverage(t *testing.T) {
	a := GenerateAtlas(DefaultAtlasConfig())
	if got := len(a.Countries); got != 239 {
		t.Errorf("atlas has %d country codes, want 239 (paper Table 1)", got)
	}
	seen := make(map[Continent]bool)
	for _, c := range a.Countries {
		if !c.Continent.Valid() {
			t.Fatalf("country %s has invalid continent %q", c.Code, c.Continent)
		}
		seen[c.Continent] = true
		if len(c.Locations) == 0 || len(c.ASNs) == 0 {
			t.Fatalf("country %s has no locations or ASes", c.Code)
		}
	}
	if len(seen) != len(Continents) {
		t.Errorf("atlas covers %d continents, want %d", len(seen), len(Continents))
	}
}

func TestSampleLocationDistribution(t *testing.T) {
	a := testAtlas(t)
	r := rand.New(rand.NewSource(42))
	const n = 50000
	counts := make(map[Continent]int)
	for i := 0; i < n; i++ {
		loc := a.SampleLocation(r)
		counts[loc.Continent]++
	}
	// Calibration targets from §4.2: NA ≈ 27%, EU ≈ 35%.
	na := float64(counts[NorthAmerica]) / n
	eu := float64(counts[Europe]) / n
	if na < 0.22 || na > 0.32 {
		t.Errorf("North America share = %.3f, want ≈ 0.27", na)
	}
	if eu < 0.30 || eu > 0.42 {
		t.Errorf("Europe share = %.3f, want ≈ 0.35", eu)
	}
}

func TestSampleAS(t *testing.T) {
	a := testAtlas(t)
	r := rand.New(rand.NewSource(7))
	counts := make(map[ASN]int)
	const n = 20000
	for i := 0; i < n; i++ {
		as := a.SampleAS(r, "US")
		if as.Country != "US" {
			t.Fatalf("SampleAS(US) returned AS in %s", as.Country)
		}
		counts[as.Number]++
	}
	us, _ := a.Country("US")
	first, second := counts[us.ASNs[0]], counts[us.ASNs[1]]
	if first <= second {
		t.Errorf("incumbent AS should dominate: first=%d second=%d", first, second)
	}
}

func TestEdgeScapeRoundTrip(t *testing.T) {
	a := testAtlas(t)
	es := NewEdgeScape(a)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		rec, err := es.AllocateRandom(r)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := es.Lookup(rec.IP)
		if !ok {
			t.Fatalf("allocated IP %v not found", rec.IP)
		}
		if got != rec {
			t.Fatalf("lookup mismatch: %+v vs %+v", got, rec)
		}
		as, ok := a.AS(rec.ASN)
		if !ok || as.Country != rec.Country {
			t.Fatalf("record AS %d inconsistent with atlas", rec.ASN)
		}
	}
	if es.Size() != 1000 {
		t.Errorf("Size() = %d, want 1000", es.Size())
	}
}

func TestEdgeScapePrefixSharing(t *testing.T) {
	a := testAtlas(t)
	es := NewEdgeScape(a)
	us, _ := a.Country("US")
	asn, loc := us.ASNs[0], us.Locations[0]
	ip1, err := es.AllocateIP(asn, loc)
	if err != nil {
		t.Fatal(err)
	}
	ip2, err := es.AllocateIP(asn, loc)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := ip1.As4(), ip2.As4()
	if p1[0] != p2[0] || p1[1] != p2[1] || p1[2] != p2[2] {
		t.Errorf("same (AS,loc) should share /24: %v vs %v", ip1, ip2)
	}
	if p1[3] == p2[3] {
		t.Errorf("duplicate host byte: %v vs %v", ip1, ip2)
	}
}

func TestEdgeScapeBlockOverflow(t *testing.T) {
	a := testAtlas(t)
	es := NewEdgeScape(a)
	us, _ := a.Country("US")
	asn, loc := us.ASNs[0], us.Locations[0]
	seen := make(map[string]bool)
	for i := 0; i < 600; i++ { // > 2 full /24s
		ip, err := es.AllocateIP(asn, loc)
		if err != nil {
			t.Fatal(err)
		}
		if seen[ip.String()] {
			t.Fatalf("duplicate IP %v at allocation %d", ip, i)
		}
		seen[ip.String()] = true
	}
}

func TestSetsForOrder(t *testing.T) {
	rec := Record{Country: "US", Continent: NorthAmerica, ASN: 1000}
	sets := SetsFor(rec)
	if sets[0] != (SetKey{LevelAS, 1000}) || sets[0].String() != "as:AS1000" {
		t.Errorf("first set should be the AS set, got %v", sets[0])
	}
	if sets[3].Level != LevelWorld {
		t.Errorf("last set should be World, got %v", sets[3])
	}
	for i := 1; i < len(sets); i++ {
		if sets[i].Level.Specificity() >= sets[i-1].Level.Specificity() {
			t.Errorf("specificity must strictly decrease: %v then %v", sets[i-1], sets[i])
		}
	}
}

// TestSetKeyCodesInjective: distinct country or continent codes get
// distinct set keys, and each key prints the code it came from. A code too
// long to pack panics instead of sharing a key.
func TestSetKeyCodesInjective(t *testing.T) {
	codes := []string{"", "A", "A\x00", "\x00", "\x00\x00", "US", "NA", "XAB", "XA", "\xff\xff\xff"}
	seen := make(map[SetKey]string)
	for _, c := range codes {
		sets := SetsFor(Record{Country: CountryCode(c), Continent: Continent(c)})
		for _, k := range sets[LevelCountry : LevelContinent+1] {
			if prev, dup := seen[k]; dup {
				t.Fatalf("codes %q and %q share the key %v", prev, c, k)
			}
			seen[k] = c
			if want := k.Level.String() + ":" + c; k.String() != want {
				t.Errorf("key of %q prints %q, want %q", c, k.String(), want)
			}
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "longer than three bytes") {
			t.Fatalf("a four-byte code gave %v, want a panic naming the limit", r)
		}
	}()
	SetsFor(Record{Country: "XABC"})
}

func TestRegionOfPartition(t *testing.T) {
	a := testAtlas(t)
	es := NewEdgeScape(a)
	r := rand.New(rand.NewSource(11))
	seen := make(map[NetworkRegion]int)
	for i := 0; i < 5000; i++ {
		rec, err := es.AllocateRandom(r)
		if err != nil {
			t.Fatal(err)
		}
		reg := RegionOf(rec)
		if reg < 0 || int(reg) >= NumRegions {
			t.Fatalf("region %d out of range", reg)
		}
		seen[reg]++
	}
	if len(seen) < 8 {
		t.Errorf("only %d regions populated, want most of %d", len(seen), NumRegions)
	}
}

func TestReportRegionOf(t *testing.T) {
	cases := []struct {
		loc  Location
		want ReportRegion
	}{
		{Location{Country: "US", Continent: NorthAmerica, Coord: Coordinates{40, -74}}, RegionUSEast},
		{Location{Country: "US", Continent: NorthAmerica, Coord: Coordinates{37, -122}}, RegionUSWest},
		{Location{Country: "CA", Continent: NorthAmerica}, RegionAmericasOther},
		{Location{Country: "BR", Continent: SouthAmerica}, RegionAmericasOther},
		{Location{Country: "IN", Continent: Asia}, RegionIndia},
		{Location{Country: "CN", Continent: Asia}, RegionChina},
		{Location{Country: "JP", Continent: Asia}, RegionAsiaOther},
		{Location{Country: "DE", Continent: Europe}, RegionEurope},
		{Location{Country: "EG", Continent: Africa}, RegionAfrica},
		{Location{Country: "AU", Continent: Oceania}, RegionOceania},
	}
	for _, c := range cases {
		if got := ReportRegionOf(&c.loc); got != c.want {
			t.Errorf("ReportRegionOf(%s) = %s, want %s", c.loc.Country, got, c.want)
		}
	}
}

func TestAdjacencyProperties(t *testing.T) {
	a := testAtlas(t)
	us, _ := a.Country("US")
	de, _ := a.Country("DE")
	// Symmetry over all pairs we can cheaply enumerate.
	for _, x := range us.ASNs {
		for _, y := range de.ASNs {
			if a.Adjacent(x, y) != a.Adjacent(y, x) {
				t.Fatalf("adjacency not symmetric for %d,%d", x, y)
			}
		}
	}
	// Domestic ASes always reach their incumbent.
	inc := us.ASNs[0]
	for _, x := range us.ASNs[1:] {
		if !a.Adjacent(x, inc) {
			t.Errorf("AS %d not connected to national incumbent %d", x, inc)
		}
	}
	if a.Adjacent(inc, inc) {
		t.Error("self-adjacency must be false")
	}
	// Tier-1 backbone connects continents: US incumbent to at least one
	// European incumbent.
	found := false
	for _, n := range a.Neighbors(inc) {
		as, _ := a.AS(n)
		c, _ := a.Country(as.Country)
		if c.Continent == Europe {
			found = true
			break
		}
	}
	if !found {
		t.Error("US incumbent has no European neighbor; backbone missing")
	}
}

func TestWrapLonAndClampLat(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0}, {179, 179}, {-179, -179},
		{181, -179}, {-181, 179},
		{540, -180}, {360, 0}, {-360, 0},
		{math.Inf(1), 0}, {math.Inf(-1), 0}, {math.NaN(), 0},
	}
	for _, c := range cases {
		got := wrapLon(c.in)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("wrapLon(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Huge finite values must return in range without looping (regression:
	// wrapLon once iterated value/360 times).
	for _, v := range []float64{1e308, -1e308, 1e18} {
		if got := wrapLon(v); got < -180 || got > 180 {
			t.Errorf("wrapLon(%v) = %v out of range", v, got)
		}
	}
	if clampLat(math.NaN()) != 0 {
		t.Error("clampLat(NaN) should be 0")
	}
	if clampLat(100) != 85 || clampLat(-100) != -85 || clampLat(42) != 42 {
		t.Error("clampLat bounds wrong")
	}
}
