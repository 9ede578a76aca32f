package trace

import (
	"math"
	"math/rand"
	"testing"

	"netsession/internal/accounting"
	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/id"
)

func testPopulation(t testing.TB, n int) *Population {
	t.Helper()
	cfg := geo.DefaultAtlasConfig()
	cfg.TailCountries = 20
	atlas := geo.GenerateAtlas(cfg)
	scape := geo.NewEdgeScape(atlas)
	pop, err := GeneratePopulation(atlas, scape, n, 11)
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestCustomerTablesConsistent(t *testing.T) {
	var dl, inst float64
	for _, c := range Customers {
		dl += c.DownloadShare
		inst += c.InstallShare
		sum := 0.0
		for _, w := range c.RegionMix {
			sum += w
		}
		if sum < 95 || sum > 105 {
			t.Errorf("%s region mix sums to %.1f, want ≈100", c.Name, sum)
		}
	}
	if math.Abs(dl-1) > 0.01 {
		t.Errorf("download shares sum to %.3f", dl)
	}
	if math.Abs(inst-1) > 0.01 {
		t.Errorf("install shares sum to %.3f", inst)
	}
	// Table 3 target: ≈31% of peers with uploads enabled.
	if f := UploadFractionTarget(); f < 0.28 || f > 0.36 {
		t.Errorf("upload-enabled calibration target %.3f, want ≈0.31", f)
	}
	if _, ok := CustomerByCP(104); !ok {
		t.Error("CustomerByCP(104) not found")
	}
	if _, ok := CustomerByCP(999); ok {
		t.Error("CustomerByCP(999) should not exist")
	}
}

func TestPopulationCalibration(t *testing.T) {
	pop := testPopulation(t, 30_000)
	n := float64(len(pop.Peers))

	enabled, singleAS, twoAS, moreAS, within10 := 0, 0, 0, 0, 0
	clones := make(map[CloneClass]int)
	for _, p := range pop.Peers {
		if p.UploadsEnabledAtInstall {
			enabled++
		}
		ases := map[geo.ASN]bool{p.Home.ASN: true}
		for _, a := range p.Away {
			ases[a.ASN] = true
		}
		switch len(ases) {
		case 1:
			singleAS++
		case 2:
			twoAS++
		default:
			moreAS++
		}
		if p.MaxRoamKm() <= 10 {
			within10++
		}
		clones[p.Clone]++
		if p.DownBps <= 0 || p.UpBps <= 0 {
			t.Fatal("non-positive bandwidth")
		}
	}
	if f := float64(enabled) / n; f < 0.27 || f > 0.37 {
		t.Errorf("uploads-enabled fraction %.3f, want ≈0.31", f)
	}
	if f := float64(singleAS) / n; f < 0.76 || f > 0.86 {
		t.Errorf("single-AS fraction %.3f, want ≈0.81 (§6.2)", f)
	}
	if f := float64(twoAS) / n; f < 0.09 || f > 0.18 {
		t.Errorf("two-AS fraction %.3f, want ≈0.13", f)
	}
	if f := float64(moreAS) / n; f < 0.03 || f > 0.10 {
		t.Errorf(">2-AS fraction %.3f, want ≈0.06", f)
	}
	if f := float64(within10) / n; f < 0.70 || f > 0.85 {
		t.Errorf("within-10km fraction %.3f, want ≈0.77", f)
	}
	nonLinear := float64(len(pop.Peers)-clones[CloneNone]) / n
	if nonLinear < 0.002 || nonLinear > 0.012 {
		t.Errorf("non-linear clone fraction %.4f, want ≈0.006", nonLinear)
	}
}

func TestPopulationUpstreamAsymmetry(t *testing.T) {
	pop := testPopulation(t, 5000)
	var down, up float64
	for _, p := range pop.Peers {
		down += float64(p.DownBps)
		up += float64(p.UpBps)
	}
	if ratio := down / up; ratio < 3 || ratio > 12 {
		t.Errorf("down/up ratio %.2f, want strongly asymmetric (≈5)", ratio)
	}
}

func TestCatalogCalibration(t *testing.T) {
	cat, err := GenerateCatalog(DefaultCatalogConfig())
	if err != nil {
		t.Fatal(err)
	}
	nP2P := 0
	large := 0
	for _, f := range cat.P2PFiles() {
		nP2P++
		if f.Object.Size > 500e6 {
			large++
		}
	}
	frac := float64(nP2P) / float64(len(cat.Files))
	if frac < 0.01 || frac > 0.03 {
		t.Errorf("p2p file fraction %.4f, want ≈0.017", frac)
	}
	if f := float64(large) / float64(nP2P); f < 0.7 {
		t.Errorf("only %.2f of p2p files exceed 500MB, want most (Figure 3a)", f)
	}
	if _, ok := cat.ObjectByID(cat.Files[0].Object.ID); !ok {
		t.Error("ObjectByID miss for known object")
	}
	if _, ok := cat.ObjectByID(content.ObjectID{1}); ok {
		t.Error("ObjectByID hit for unknown object")
	}
}

func TestWorkloadShapes(t *testing.T) {
	pop := testPopulation(t, 10_000)
	cat, err := GenerateCatalog(DefaultCatalogConfig())
	if err != nil {
		t.Fatal(err)
	}
	wcfg := DefaultWorkloadConfig()
	wcfg.TotalDownloads = 30_000
	reqs, err := GenerateWorkload(pop, cat, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != wcfg.TotalDownloads {
		t.Fatalf("got %d requests, want %d", len(reqs), wcfg.TotalDownloads)
	}
	var p2pReqs, p2pBytes, allBytes float64
	maxMs := int64(wcfg.Days) * 86_400_000
	for i, rq := range reqs {
		if i > 0 && rq.TimeMs < reqs[i-1].TimeMs {
			t.Fatal("requests not sorted by time")
		}
		if rq.TimeMs < 0 || rq.TimeMs >= maxMs {
			t.Fatalf("request time %d out of range", rq.TimeMs)
		}
		sz := float64(rq.File.Object.Size)
		allBytes += sz
		if rq.File.Object.P2PEnabled {
			p2pReqs++
			p2pBytes += sz
		}
	}
	// §5.1: p2p-enabled files carry 57.4% of bytes while being a tiny
	// share of requests.
	if share := p2pBytes / allBytes; share < 0.40 || share > 0.75 {
		t.Errorf("p2p byte share %.3f, want ≈0.57", share)
	}
	if share := p2pReqs / float64(len(reqs)); share > 0.20 {
		t.Errorf("p2p request share %.3f, want small", share)
	}
	// Table 2 headline: Europe receives ≈46% of all downloads.
	euReqs := 0
	for _, rq := range reqs {
		loc := pop.Atlas.Location(pop.Peers[rq.PeerIndex].Home.Location)
		if geo.ReportRegionOf(loc) == geo.RegionEurope {
			euReqs++
		}
	}
	if f := float64(euReqs) / float64(len(reqs)); f < 0.38 || f > 0.54 {
		t.Errorf("Europe download share %.3f, want ≈0.46", f)
	}
}

func TestWorkloadDiurnal(t *testing.T) {
	pop := testPopulation(t, 5000)
	cat, err := GenerateCatalog(DefaultCatalogConfig())
	if err != nil {
		t.Fatal(err)
	}
	wcfg := DefaultWorkloadConfig()
	wcfg.TotalDownloads = 20_000
	reqs, err := GenerateWorkload(pop, cat, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	// In each requester's local time, evening hours must beat early-morning
	// hours clearly.
	var evening, morning int
	for _, rq := range reqs {
		p := pop.Peers[rq.PeerIndex]
		h := math.Mod(float64(rq.TimeMs)/3_600_000+float64(p.Home.TZOffset)+24*1000, 24)
		switch {
		case h >= 18 && h < 23:
			evening++
		case h >= 3 && h < 8:
			morning++
		}
	}
	if evening <= morning {
		t.Errorf("diurnal shape missing: evening=%d morning=%d", evening, morning)
	}
}

// collectLogins gathers the login stream into a slice.
func collectLogins(pop *Population, days int, seed int64) []accounting.LoginRecord {
	var out []accounting.LoginRecord
	Logins(pop, days, seed, func(l *accounting.LoginRecord) { out = append(out, *l) })
	return out
}

func TestGenerateLogins(t *testing.T) {
	pop := testPopulation(t, 2000)
	logins := collectLogins(pop, 31, 5)
	if len(logins) == 0 {
		t.Fatal("no logins")
	}
	last := make(map[id.GUID]int64)
	for _, l := range logins {
		if prev, ok := last[l.GUID]; ok && l.TimeMs < prev {
			t.Fatalf("GUID %s: login at %d after one at %d", l.GUID, l.TimeMs, prev)
		}
		last[l.GUID] = l.TimeMs
		if l.Secondaries[0].IsZero() {
			t.Fatal("login without secondary GUIDs")
		}
	}
	if len(last) != len(pop.Peers) {
		t.Errorf("%d GUIDs logged in, want %d (every GUID at least once)",
			len(last), len(pop.Peers))
	}
}

func TestLoginSettingChangesMatchSpec(t *testing.T) {
	pop := testPopulation(t, 4000)
	logins := collectLogins(pop, 31, 6)
	byGUID := make(map[string][]bool)
	for _, l := range logins {
		byGUID[l.GUID.String()] = append(byGUID[l.GUID.String()], l.UploadsEnabled)
	}
	specChanges := make(map[string]int)
	for _, p := range pop.Peers {
		specChanges[p.GUID.String()] = p.SettingChanges
	}
	for g, seq := range byGUID {
		changes := 0
		for i := 1; i < len(seq); i++ {
			if seq[i] != seq[i-1] {
				changes++
			}
		}
		// Observed changes can be at most the spec'd toggles (toggles may
		// collide on the same login index or fall past the final login).
		if changes > specChanges[g] {
			t.Fatalf("GUID %s shows %d changes, spec allows %d", g, changes, specChanges[g])
		}
	}
}

func TestSecondaryChainLinear(t *testing.T) {
	pop := testPopulation(t, 1)
	p := pop.Peers[0]
	p.Clone = CloneNone
	var logins []accounting.LoginRecord
	peerLogins(rand.New(rand.NewSource(1)), p, 20, func(l *accounting.LoginRecord) {
		logins = append(logins, *l)
	})
	// Consecutive windows must overlap by HistoryLen-1 entries.
	for i := 1; i < len(logins); i++ {
		prev, cur := logins[i-1].Secondaries, logins[i].Secondaries
		for k := 0; k+1 < len(cur); k++ {
			if cur[k+1] != prev[k] {
				t.Fatalf("login %d window does not slide linearly", i)
			}
		}
	}
}

func TestCatalogP2PShareFollowsEnableRate(t *testing.T) {
	cat, err := GenerateCatalog(DefaultCatalogConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	share := func(cp content.CPCode) float64 {
		p2p := 0
		const n = 5000
		for i := 0; i < n; i++ {
			f, err := cat.SampleFile(r, cp)
			if err != nil {
				t.Fatal(err)
			}
			if f.Object.P2PEnabled {
				p2p++
			}
		}
		return float64(p2p) / n
	}
	// Customer D ships uploads-enabled binaries (94%) and uses peer
	// delivery heavily; Customer A (0.5%) effectively does not.
	d, a := share(104), share(101)
	if d < 0.3 {
		t.Errorf("Customer D p2p request share %.3f, want large", d)
	}
	if a > 0.05 {
		t.Errorf("Customer A p2p request share %.3f, want tiny", a)
	}
	if d <= a {
		t.Error("p2p usage should follow the Table 4 enable rate")
	}
	if _, err := cat.SampleFile(r, 9999); err == nil {
		t.Error("unknown CP accepted")
	}
}
