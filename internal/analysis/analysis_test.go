package analysis_test

import (
	"strings"
	"sync"
	"testing"

	"netsession/internal/accounting"
	"netsession/internal/analysis"
	"netsession/internal/geo"
	"netsession/internal/protocol"
	"netsession/internal/sim"
)

// The small-month tests live in an external test package: the simulator
// imports analysis to describe its results (sim.Result.Input), so analysis's
// own tests reach the simulator from outside.
var (
	simOnce  sync.Once
	simRes   *sim.Result
	simIn    *analysis.Input
	simMonth *analysis.Month
	simDays  int
)

// simInput runs the small scenario and analyses it once, shared across
// tests.
func simInput(t testing.TB) (*analysis.Input, *analysis.Month) {
	t.Helper()
	simOnce.Do(func() {
		cfg := sim.SmallScenario()
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
		simRes, simDays = res, cfg.Days
		simIn = res.Input()
		simMonth = analysis.Analyze(simIn, simDays)
	})
	if simIn == nil {
		t.Skip("sim input unavailable")
	}
	return simIn, simMonth
}

func TestTable1(t *testing.T) {
	in, m := simInput(t)
	t1 := m.Table1()
	if t1.GUIDs != len(in.Pop.Peers) {
		t.Errorf("GUIDs=%d, want %d (every peer logs in)", t1.GUIDs, len(in.Pop.Peers))
	}
	if t1.DistinctIPs < t1.GUIDs {
		t.Errorf("distinct IPs %d below GUID count %d", t1.DistinctIPs, t1.GUIDs)
	}
	if t1.DownloadsInitiated == 0 || t1.DistinctURLs == 0 {
		t.Error("empty download stats")
	}
	if t1.DistinctCountries < 20 {
		t.Errorf("only %d countries", t1.DistinctCountries)
	}
	if t1.LogEntries <= t1.DownloadsInitiated {
		t.Error("log entries should include logins and registrations")
	}
}

func TestTable2Shapes(t *testing.T) {
	_, m := simInput(t)
	rows := m.Table2()
	if len(rows) != 11 {
		t.Fatalf("got %d rows, want 10 customers + all", len(rows))
	}
	byName := make(map[string]analysis.Table2Row)
	for _, r := range rows {
		sum := 0.0
		for _, v := range r.Share {
			sum += v
		}
		if r.Total > 0 && (sum < 99 || sum > 101) {
			t.Errorf("%s shares sum to %.1f", r.Customer, sum)
		}
		byName[r.Customer] = r
	}
	// Customer F is 100% Europe in Table 2.
	if f := byName["Customer F"]; f.Share[geo.RegionEurope] < 95 {
		t.Errorf("Customer F Europe share %.1f, want ≈100", f.Share[geo.RegionEurope])
	}
	// All-customers Europe ≈ 46%.
	if all := byName["All customers"]; all.Share[geo.RegionEurope] < 36 || all.Share[geo.RegionEurope] > 56 {
		t.Errorf("All-customers Europe share %.1f, want ≈46", all.Share[geo.RegionEurope])
	}
	// Customer J is US-heavy.
	if j := byName["Customer J"]; j.Share[geo.RegionUSEast]+j.Share[geo.RegionUSWest] < 45 {
		t.Errorf("Customer J US share %.1f, want ≈66",
			j.Share[geo.RegionUSEast]+j.Share[geo.RegionUSWest])
	}
}

func TestTable3Shapes(t *testing.T) {
	_, m := simInput(t)
	t3 := m.Table3()
	dis, en := t3.Rows[false], t3.Rows[true]
	if dis.Nodes == 0 || en.Nodes == 0 {
		t.Fatal("empty cohorts")
	}
	// ≈31% enabled overall.
	frac := float64(en.Nodes) / float64(en.Nodes+dis.Nodes)
	if frac < 0.26 || frac > 0.38 {
		t.Errorf("enabled cohort fraction %.3f, want ≈0.31", frac)
	}
	// Users overwhelmingly keep the default (paper: 99.96% / 98.11%).
	if dis.PctZero < 99.5 {
		t.Errorf("disabled-default keep rate %.2f%%, want ≈99.96%%", dis.PctZero)
	}
	if en.PctZero < 96.5 || en.PctZero > 99.9 {
		t.Errorf("enabled-default keep rate %.2f%%, want ≈98.11%%", en.PctZero)
	}
	if en.PctOne < dis.PctOne {
		t.Error("enabled-default users change more often than disabled-default users in the paper")
	}
}

func TestTable4Shapes(t *testing.T) {
	_, m := simInput(t)
	rows := m.Table4()
	got := make(map[string]float64)
	for _, r := range rows {
		got[r.Customer] = r.PctEnabled
	}
	// Spot-check against the Table 4 targets.
	if v := got["Customer D"]; v < 88 || v > 98 {
		t.Errorf("Customer D enabled %.1f%%, want ≈94%%", v)
	}
	if v := got["Customer I"]; v < 85 || v > 96 {
		t.Errorf("Customer I enabled %.1f%%, want ≈91%%", v)
	}
	if v := got["Customer A"]; v > 3 {
		t.Errorf("Customer A enabled %.1f%%, want <1%%", v)
	}
}

func TestFigure2(t *testing.T) {
	in, m := simInput(t)
	bubbles := m.Figure2()
	if len(bubbles) < 100 {
		t.Fatalf("only %d locations", len(bubbles))
	}
	total := 0
	for _, b := range bubbles {
		total += b.Peers
	}
	if total != len(in.Pop.Peers) {
		t.Errorf("bubble total %d != population %d", total, len(in.Pop.Peers))
	}
	if bubbles[0].Peers < bubbles[len(bubbles)-1].Peers {
		t.Error("bubbles not sorted by size")
	}
}

func TestFigure3a(t *testing.T) {
	_, m := simInput(t)
	f := m.Tally.Figure3a()
	if f.PctPeerAssistedOver500MB < 70 {
		t.Errorf("peer-assisted >500MB = %.1f%%, want ≈82%%", f.PctPeerAssistedOver500MB)
	}
	// Peer-assisted CDF must sit to the right of (below) the infra-only
	// CDF at mid sizes: larger objects.
	for i, pt := range f.All {
		if pt.X > 0.2 && pt.X < 1 {
			if f.PeerAssisted[i].Y > f.InfraOnly[i].Y {
				t.Errorf("at %.2fGB peer-assisted CDF (%.1f%%) above infra-only (%.1f%%)",
					pt.X, f.PeerAssisted[i].Y, f.InfraOnly[i].Y)
			}
		}
	}
}

func TestFigure3b(t *testing.T) {
	_, m := simInput(t)
	f := m.Tally.Figure3b()
	if len(f.Counts) < 500 {
		t.Fatalf("only %d distinct objects", len(f.Counts))
	}
	slope := f.PowerLawSlope()
	if slope < 0.4 || slope > 1.6 {
		t.Errorf("power-law exponent %.2f, want ≈0.9", slope)
	}
}

func TestFigure3c(t *testing.T) {
	_, m := simInput(t)
	f := m.Figure3c()
	var total float64
	for _, v := range f.GMT {
		total += v
	}
	if total == 0 {
		t.Fatal("no bytes over time")
	}
	peak, trough := 0.0, -1.0
	for _, v := range f.LocalHourOfDay {
		if v > peak {
			peak = v
		}
		if trough < 0 || v < trough {
			trough = v
		}
	}
	if trough <= 0 || peak/trough < 1.3 {
		t.Errorf("diurnal peak/trough %.2f, want clearly diurnal (>1.3)", peak/trough)
	}
}

func TestFigure4(t *testing.T) {
	_, m := simInput(t)
	f := m.Figure4()
	for _, p := range []analysis.Figure4AS{f.ASX, f.ASY} {
		if p.MedianEdgeMbps <= 0 {
			t.Fatal("no edge-only speed samples in a top AS")
		}
		// §5.2: "although the peer-assisted downloads are somewhat slower,
		// the speed is still quite high".
		if p.MedianP2PMbps > 0 {
			if p.MedianP2PMbps > p.MedianEdgeMbps*1.2 {
				t.Errorf("AS%d: p2p median %.2f faster than edge %.2f",
					p.ASN, p.MedianP2PMbps, p.MedianEdgeMbps)
			}
			if p.MedianP2PMbps < p.MedianEdgeMbps/20 {
				t.Errorf("AS%d: p2p median %.2f absurdly slow vs %.2f",
					p.ASN, p.MedianP2PMbps, p.MedianEdgeMbps)
			}
		}
	}
}

func TestFigure5Rises(t *testing.T) {
	_, m := simInput(t)
	f := m.Figure5()
	if len(f.Buckets) < 3 {
		t.Fatalf("only %d buckets", len(f.Buckets))
	}
	first, last := f.Buckets[0], f.Buckets[len(f.Buckets)-1]
	if last.Mean <= first.Mean {
		t.Errorf("efficiency does not rise with copies: %.1f%% (x=%.0f) -> %.1f%% (x=%.0f)",
			first.Mean, first.X, last.Mean, last.X)
	}
}

func TestFigure6Rises(t *testing.T) {
	_, m := simInput(t)
	f := m.Figure6()
	if len(f.ByPeers) < 4 {
		t.Fatalf("only %d groups", len(f.ByPeers))
	}
	// Efficiency with many peers must clearly beat efficiency with none.
	lowest, highest := f.ByPeers[0], f.ByPeers[len(f.ByPeers)-1]
	if highest.Mean <= lowest.Mean {
		t.Errorf("efficiency does not rise with peers returned: %.1f%% (k=%.0f) -> %.1f%% (k=%.0f)",
			lowest.Mean, lowest.X, highest.Mean, highest.X)
	}
}

func TestFigure7LargerFilesPauseMore(t *testing.T) {
	_, m := simInput(t)
	f := m.Tally.Figure7()
	allSmall := f.PauseRatePct[analysis.SizeUnder10MB][2]
	allLarge := f.PauseRatePct[analysis.SizeOver1GB][2]
	if f.N[analysis.SizeOver1GB][2] > 50 && allLarge <= allSmall {
		t.Errorf("large files pause less than small: %.1f%% vs %.1f%%", allLarge, allSmall)
	}
}

func TestFigure8(t *testing.T) {
	_, m := simInput(t)
	f := m.Figure8(104) // Customer D, heavily p2p-enabled
	if len(f.Countries) < 10 {
		t.Fatalf("only %d countries", len(f.Countries))
	}
	if f.ClassN[analysis.InfraDominant]+f.ClassN[analysis.PeersModerate]+f.ClassN[analysis.PeersDominant] != len(f.Countries) {
		t.Error("class counts do not partition countries")
	}
}

func TestASTrafficShapes(t *testing.T) {
	in, m := simInput(t)
	ast := m.ASTraffic()
	if ast.TotalP2PBytes == 0 {
		t.Fatal("no p2p traffic")
	}
	intra := ast.IntraASFraction()
	if intra <= 0.02 || intra > 0.6 {
		t.Errorf("intra-AS fraction %.3f, want noticeable (paper: 0.18)", intra)
	}
	f9b := ast.ComputeFigure9b()
	if f9b.HeavyASes == 0 {
		t.Fatal("no heavy uploaders")
	}
	// Heavy uploaders are a minority of ASes carrying ≈90% of bytes.
	if f9b.HeavyASes*2 > ast.ASesWithPeers {
		t.Errorf("heavy uploaders %d not a minority of %d", f9b.HeavyASes, ast.ASesWithPeers)
	}
	if f9b.LightSharePct > 25 {
		t.Errorf("light uploaders carry %.1f%%, want ≈10%%", f9b.LightSharePct)
	}
	f9c := ast.ComputeFigure9c()
	if f9c.MedianHeavyIPs <= f9c.MedianLightIPs {
		t.Errorf("heavy uploaders should contain more peers: %.0f vs %.0f",
			f9c.MedianHeavyIPs, f9c.MedianLightIPs)
	}
	f10 := ast.ComputeFigure10()
	if f10.HeavyMedianRatio < 0.2 || f10.HeavyMedianRatio > 5 {
		t.Errorf("heavy uploaders' up/down ratio %.2f, want roughly balanced", f10.HeavyMedianRatio)
	}
	f11 := ast.ComputeFigure11(in.Atlas)
	if len(f11.Pairs) == 0 {
		t.Fatal("no heavy pairs")
	}
	if f11.PctDirectBytes <= 0 {
		t.Error("no heavy-pair bytes on direct links")
	}
}

func TestFigure12Shapes(t *testing.T) {
	_, m := simInput(t)
	f := m.Figure12()
	if f.Graphs < 1000 {
		t.Fatalf("only %d graphs", f.Graphs)
	}
	if f.PctNonLinear < 0.1 || f.PctNonLinear > 2.5 {
		t.Errorf("non-linear share %.2f%%, want ≈0.6%%", f.PctNonLinear)
	}
	nonLinear := f.Graphs - f.Count[analysis.GraphLinear]
	if nonLinear > 3 && f.Count[analysis.GraphShortBranch] == 0 {
		t.Error("no short-branch graphs despite non-linear population")
	}
}

func TestHeadlines(t *testing.T) {
	_, m := simInput(t)
	h := m.Headlines()
	if h.PctFilesP2PEnabled < 1 || h.PctFilesP2PEnabled > 3 {
		t.Errorf("p2p file share %.2f%%, want ≈1.7%%", h.PctFilesP2PEnabled)
	}
	if h.PctBytesP2PFiles < 35 || h.PctBytesP2PFiles > 75 {
		t.Errorf("p2p byte share %.1f%%, want ≈57%%", h.PctBytesP2PFiles)
	}
	if h.CompletionInfraPct < 85 || h.CompletionInfraPct > 99 {
		t.Errorf("infra completion %.1f%%, want ≈94%%", h.CompletionInfraPct)
	}
	if h.CompletionP2PPct >= h.CompletionInfraPct {
		t.Errorf("p2p completion %.1f%% should trail infra %.1f%% slightly",
			h.CompletionP2PPct, h.CompletionInfraPct)
	}
	if h.AbortP2PPct <= h.AbortInfraPct {
		t.Errorf("p2p aborts %.1f%% should exceed infra %.1f%% (larger files)",
			h.AbortP2PPct, h.AbortInfraPct)
	}
	// The 10-day small scenario observes fewer logins per GUID than the
	// paper's month, so some movers never show their second AS; observed
	// single-AS share sits a few points above the ground-truth 80.6%.
	if h.Pct1AS < 75 || h.Pct1AS > 92 {
		t.Errorf("1-AS share %.1f%%, want ≈80.6%% (+observation slack)", h.Pct1AS)
	}
	if h.PctWithin10Km < 68 || h.PctWithin10Km > 93 {
		t.Errorf("within-10km %.1f%%, want ≈77%% (+observation slack)", h.PctWithin10Km)
	}
}

func TestReportRenders(t *testing.T) {
	_, m := simInput(t)
	rep := m.Report()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4",
		"Figure 2", "Figure 3a", "Figure 3b", "Figure 3c", "Figure 4",
		"Figure 5", "Figure 6", "Figure 7", "Figure 8", "Figure 9a",
		"Figure 9b", "Figure 9c", "Figure 10", "Figure 11", "Figure 12",
		"Headlines",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if len(rep) < 2000 {
		t.Errorf("report suspiciously short: %d bytes", len(rep))
	}
}

// TestFigure4SkipsZeroDuration: a completed download whose end is not after
// its start has no speed, so Figure 4 takes no sample from it, as the speed
// medians of the tally do not.
func TestFigure4SkipsZeroDuration(t *testing.T) {
	atlas := geo.GenerateAtlas(geo.AtlasConfig{CitiesPerCountry: 2, ASesPerCountry: 2, Seed: 1})
	scape := geo.NewEdgeScape(atlas)
	c := atlas.Countries[0]
	ip, err := scape.AllocateIP(c.ASNs[0], c.Locations[0])
	if err != nil {
		t.Fatal(err)
	}
	dl := func(startMs, endMs int64) accounting.DownloadRecord {
		return accounting.DownloadRecord{IP: ip, BytesInfra: 1_000_000,
			StartMs: startMs, EndMs: endMs, Outcome: protocol.OutcomeCompleted}
	}
	in := &analysis.Input{Atlas: atlas, Scape: scape, Records: &accounting.Log{Downloads: []accounting.DownloadRecord{
		dl(0, 1000), dl(2000, 3000), dl(5000, 5000),
	}}}
	f := analysis.Analyze(in, 1).Figure4()
	if f.ASX.ASN != c.ASNs[0] {
		t.Fatalf("AS X is AS%d, want AS%d", f.ASX.ASN, c.ASNs[0])
	}
	// 1 MB in one second is 8 Mbps; nothing is at or below 0.1 Mbps.
	if got := f.ASX.EdgeOnly[0]; got.Y != 0 {
		t.Errorf("edge-only CDF at %.1f Mbps is %.1f%%, want 0 (a zero-duration download was counted)", got.X, got.Y)
	}
	if f.ASX.MedianEdgeMbps != 8 {
		t.Errorf("edge-only median %.2f Mbps, want 8", f.ASX.MedianEdgeMbps)
	}
}
