package analysis

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// synthDownloads fabricates a deterministic, geo-annotated download set with
// peer contributions spanning several regions and ASes.
func synthDownloads(n int, seed int64) []OfflineDownload {
	rng := rand.New(rand.NewSource(seed))
	regions := []string{"NA-East", "NA-West", "EU-West", "AS-NEA", "OC"}
	countries := []string{"US", "US", "DE", "JP", "AU"}
	out := make([]OfflineDownload, 0, n)
	for i := 0; i < n; i++ {
		ri := rng.Intn(len(regions))
		d := OfflineDownload{
			GUID:    fmt.Sprintf("guid-%04x", rng.Intn(n/2+1)),
			Country: countries[ri],
			ASN:     uint32(100 + rng.Intn(40)),
			Region:  regions[ri],
			URLHash: fmt.Sprintf("url-%03d", rng.Intn(200)),
			Size:    int64(rng.Intn(1 << 20)),
			StartMs: int64(i) * 1000,
			EndMs:   int64(i)*1000 + int64(rng.Intn(60_000)),
		}
		d.P2PEnabled = rng.Intn(3) > 0
		switch rng.Intn(10) {
		case 0:
			d.Outcome = "aborted"
		case 1:
			d.Outcome = "failed-system"
		default:
			d.Outcome = "completed"
		}
		d.BytesInfra = int64(rng.Intn(1 << 20))
		if d.P2PEnabled {
			nPeers := rng.Intn(4)
			for p := 0; p < nPeers; p++ {
				pi := rng.Intn(len(regions))
				pc := OfflineContribution{
					GUID:    fmt.Sprintf("guid-%04x", rng.Intn(n/2+1)),
					Country: countries[pi],
					ASN:     uint32(100 + rng.Intn(40)),
					Region:  regions[pi],
					Bytes:   int64(rng.Intn(1 << 18)),
				}
				d.FromPeers = append(d.FromPeers, pc)
				d.BytesPeers += pc.Bytes
			}
		}
		out = append(out, d)
	}
	return out
}

func TestStreamingRegionAggregates(t *testing.T) {
	dls := synthDownloads(5_000, 3)
	s := NewStreamingSummarizer(4)
	var wantInfra, wantPeers int64
	perRegionPeers := map[string]int64{}
	uploadedTotal := int64(0)
	for i := range dls {
		d := &dls[i]
		s.Observe(d)
		wantInfra += d.BytesInfra
		wantPeers += d.BytesPeers
		perRegionPeers[d.Region] += d.BytesPeers
		for _, pc := range d.FromPeers {
			uploadedTotal += pc.Bytes
		}
	}
	sum := s.Snapshot()
	if sum.BytesInfra != wantInfra || sum.BytesPeers != wantPeers {
		t.Fatalf("byte totals: got (%d, %d), want (%d, %d)",
			sum.BytesInfra, sum.BytesPeers, wantInfra, wantPeers)
	}
	wantOffload := 100 * float64(wantPeers) / float64(wantInfra+wantPeers)
	if math.Abs(sum.OffloadPct-wantOffload) > 1e-9 {
		t.Errorf("OffloadPct %.6f, want %.6f", sum.OffloadPct, wantOffload)
	}
	var regionPeers, regionUploaded, matrixTotal int64
	for _, r := range sum.Regions {
		if r.BytesPeers != perRegionPeers[r.Region] {
			t.Errorf("region %s peer bytes %d, want %d", r.Region, r.BytesPeers, perRegionPeers[r.Region])
		}
		regionPeers += r.BytesPeers
		regionUploaded += r.BytesUploaded
	}
	for _, row := range sum.RegionMatrix {
		for _, b := range row {
			matrixTotal += b
		}
	}
	if regionPeers != wantPeers {
		t.Errorf("per-region peer bytes sum %d, want %d", regionPeers, wantPeers)
	}
	// Every uploaded byte is attributed to exactly one (from, to) matrix cell
	// and one uploading region.
	if regionUploaded != uploadedTotal || matrixTotal != uploadedTotal {
		t.Errorf("upload attribution: regions %d, matrix %d, want %d",
			regionUploaded, matrixTotal, uploadedTotal)
	}
	if sum.IntraASBytes+sum.InterASBytes != uploadedTotal {
		t.Errorf("AS split %d+%d != %d", sum.IntraASBytes, sum.InterASBytes, uploadedTotal)
	}
}

func TestStreamingSummaryMergeFleet(t *testing.T) {
	all := synthDownloads(12_000, 19)
	// Split the log across two "control planes" and merge their summaries;
	// the fleet view must match one summarizer that saw everything.
	s1, s2, whole := NewStreamingSummarizer(2), NewStreamingSummarizer(2), NewStreamingSummarizer(2)
	for i := range all {
		whole.Observe(&all[i])
		if i%2 == 0 {
			s1.Observe(&all[i])
		} else {
			s2.Observe(&all[i])
		}
	}
	// Round-trip each part through JSON the way the monitor scrapes it.
	var a, b StreamingSummary
	for _, rt := range []struct {
		src StreamingSummary
		dst *StreamingSummary
	}{{s1.Snapshot(), &a}, {s2.Snapshot(), &b}} {
		raw, err := json.Marshal(rt.src)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, rt.dst); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Merge(&b); err != nil {
		t.Fatal(err)
	}
	want := whole.Snapshot()
	if a.Downloads != want.Downloads || a.BytesPeers != want.BytesPeers ||
		a.IntraASBytes != want.IntraASBytes || a.InterASBytes != want.InterASBytes {
		t.Fatalf("merged totals diverge: got (%d dl, %d peer, %d intra, %d inter), want (%d, %d, %d, %d)",
			a.Downloads, a.BytesPeers, a.IntraASBytes, a.InterASBytes,
			want.Downloads, want.BytesPeers, want.IntraASBytes, want.InterASBytes)
	}
	if a.ActiveGUIDs != want.ActiveGUIDs {
		t.Errorf("sketch union: merged %.1f, whole %.1f (must be identical registers)",
			a.ActiveGUIDs, want.ActiveGUIDs)
	}
	if a.Countries != want.Countries || a.ASes != want.ASes || a.HeavyASes != want.HeavyASes {
		t.Errorf("merged dims (%d, %d, %d) != whole (%d, %d, %d)",
			a.Countries, a.ASes, a.HeavyASes, want.Countries, want.ASes, want.HeavyASes)
	}
	if len(a.Regions) != len(want.Regions) {
		t.Fatalf("merged regions %d != whole %d", len(a.Regions), len(want.Regions))
	}
	for i := range a.Regions {
		if a.Regions[i] != want.Regions[i] {
			t.Errorf("region %s: merged %+v != whole %+v",
				a.Regions[i].Region, a.Regions[i], want.Regions[i])
		}
	}
}

func TestStreamingUnknownRegionBucket(t *testing.T) {
	s := NewStreamingSummarizer(1)
	s.Observe(&OfflineDownload{GUID: "g", URLHash: "u", BytesInfra: 10, Outcome: "completed"})
	sum := s.Snapshot()
	if len(sum.Regions) != 1 || sum.Regions[0].Region != RegionUnknown {
		t.Fatalf("unannotated record regions = %+v, want one %q bucket", sum.Regions, RegionUnknown)
	}
}

func TestStreamingRenderMentionsHeadlines(t *testing.T) {
	dls := synthDownloads(1_000, 5)
	s := NewStreamingSummarizer(2)
	for i := range dls {
		s.Observe(&dls[i])
	}
	out := s.Snapshot().Render()
	for _, want := range []string{"offload:", "intra-AS", "region", "NA-East"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render() missing %q:\n%s", want, out)
		}
	}
}

// FuzzStreamingSummaryMerge feeds arbitrary scraped documents to the fleet
// merge: whatever the JSON holds, merging it into a valid summary must not
// panic, the raw download tallies must add, and the result must still
// render. A malformed sketch is an error, never a reason to drop the rest.
func FuzzStreamingSummaryMerge(f *testing.F) {
	golden, err := os.ReadFile("testdata/analytics_20k.golden.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"downloads":3,"guidSketch":"AQID","regions":[{"region":"","downloads":-1}]}`))
	f.Add([]byte(`{"downloads":-9,"regionMatrix":{"a":null,"":{"b":1}},"interASUploads":{"7":-5},"effN":2}`))

	dls := synthDownloads(300, 23)
	base := NewStreamingSummarizer(2)
	for i := range dls {
		base.Observe(&dls[i])
	}
	valid := base.Snapshot()

	f.Fuzz(func(t *testing.T, raw []byte) {
		var doc StreamingSummary
		if json.Unmarshal(raw, &doc) != nil {
			return
		}
		sum := valid
		_ = sum.Merge(&doc) // a bad sketch is reported, the merge still happens
		if sum.Downloads != valid.Downloads+doc.Downloads {
			t.Fatalf("Downloads %d after merging %d into %d", sum.Downloads, doc.Downloads, valid.Downloads)
		}
		if sum.Render() == "" {
			t.Fatal("merged summary renders empty")
		}
	})
}
