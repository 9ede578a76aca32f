package netsession

// The benchmark harness regenerates every table and figure of the paper's
// evaluation. BenchmarkPaperFigures times the one walk that analyses a shared
// simulated month and prints the series the paper reports from its views (so
// `go test -bench=.` does both), and the Ablation benches run counterfactual
// scenarios for the design choices DESIGN.md calls out.
//
// Scale note: the shared scenario is the fast test scale. The
// `netsession-report` command runs the larger DefaultScenario and writes
// the full paper-vs-measured comparison into EXPERIMENTS.md.

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"netsession/internal/analysis"
	"netsession/internal/geo"
	"netsession/internal/sim"
)

var (
	benchOnce sync.Once
	benchIn   *analysis.Input
	benchDays int
	benchErr  error
)

func benchInput(b *testing.B) *analysis.Input {
	b.Helper()
	benchOnce.Do(func() {
		cfg := sim.SmallScenario()
		res, err := sim.Run(cfg)
		if err != nil {
			benchErr = err
			return
		}
		benchDays = cfg.Days
		benchIn = res.Input()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchIn
}

var printMu sync.Mutex
var printed = map[string]bool{}

// printOnce emits a block of series output exactly once per bench name.
func printOnce(name, text string) {
	printMu.Lock()
	defer printMu.Unlock()
	if printed[name] {
		return
	}
	printed[name] = true
	fmt.Printf("\n--- %s ---\n%s", name, text)
}

// BenchmarkPaperFigures times the one walk that analyses the month, then
// prints every table, figure and headline series from its views.
func BenchmarkPaperFigures(b *testing.B) {
	in := benchInput(b)
	var m *analysis.Month
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m = analysis.Analyze(in, benchDays)
	}
	b.StopTimer()

	t1 := m.Table1()
	printOnce("Table 1", fmt.Sprintf(
		"log entries %d | GUIDs %d | URLs %d | IPs %d | downloads %d | locations %d | ASes %d | countries %d\n",
		t1.LogEntries, t1.GUIDs, t1.DistinctURLs, t1.DistinctIPs,
		t1.DownloadsInitiated, t1.DistinctLocations, t1.DistinctASes, t1.DistinctCountries))

	var out string
	for _, r := range m.Table2() {
		out += fmt.Sprintf("%-14s EU %.0f%% USe %.0f%% USw %.0f%% AsO %.0f%%\n",
			r.Customer, r.Share[geo.RegionEurope], r.Share[geo.RegionUSEast],
			r.Share[geo.RegionUSWest], r.Share[geo.RegionAsiaOther])
	}
	printOnce("Table 2", out)

	t3 := m.Table3()
	d, e := t3.Rows[false], t3.Rows[true]
	printOnce("Table 3", fmt.Sprintf(
		"disabled: n=%d keep %.2f%% (paper 99.96) | enabled: n=%d keep %.2f%% (paper 98.11)\n",
		d.Nodes, d.PctZero, e.Nodes, e.PctZero))

	out = ""
	for _, r := range m.Table4() {
		out += fmt.Sprintf("%-12s %.1f%%\n", r.Customer, r.PctEnabled)
	}
	printOnce("Table 4", out)

	bubbles := m.Figure2()
	out = fmt.Sprintf("%d locations; top:", len(bubbles))
	for i := 0; i < 5 && i < len(bubbles); i++ {
		out += fmt.Sprintf(" %s=%d", bubbles[i].City, bubbles[i].Peers)
	}
	printOnce("Figure 2", out+"\n")

	f3a := m.Tally.Figure3a()
	b.ReportMetric(f3a.PctPeerAssistedOver500MB, "%p2p>500MB")
	out = ""
	for i := 0; i < len(f3a.All); i += 4 {
		out += fmt.Sprintf("%.2fGB: infra %.0f%% all %.0f%% p2p %.0f%%\n",
			f3a.All[i].X, f3a.InfraOnly[i].Y, f3a.All[i].Y, f3a.PeerAssisted[i].Y)
	}
	printOnce("Figure 3a", out)

	f3b := m.Tally.Figure3b()
	b.ReportMetric(f3b.PowerLawSlope(), "zipf-exponent")
	out = ""
	for _, rank := range []int{1, 10, 100, 1000} {
		if rank <= len(f3b.Counts) {
			out += fmt.Sprintf("rank %4d: %d downloads\n", rank, f3b.Counts[rank-1])
		}
	}
	printOnce("Figure 3b", out)

	f3c := m.Figure3c()
	peak, trough := 0.0, -1.0
	for _, v := range f3c.LocalHourOfDay {
		if v > peak {
			peak = v
		}
		if trough < 0 || v < trough {
			trough = v
		}
	}
	if trough > 0 {
		b.ReportMetric(peak/trough, "diurnal-peak/trough")
	}
	printOnce("Figure 3c", fmt.Sprintf("local-time peak/trough %.2f over %d hours\n",
		peak/trough, len(f3c.GMT)))

	f4 := m.Figure4()
	printOnce("Figure 4", fmt.Sprintf(
		"AS X (AS%d): edge median %.2f Mbps, >50%%p2p median %.2f Mbps\nAS Y (AS%d): edge median %.2f Mbps, >50%%p2p median %.2f Mbps\n",
		f4.ASX.ASN, f4.ASX.MedianEdgeMbps, f4.ASX.MedianP2PMbps,
		f4.ASY.ASN, f4.ASY.MedianEdgeMbps, f4.ASY.MedianP2PMbps))

	out = ""
	for _, bkt := range m.Figure5().Buckets {
		out += fmt.Sprintf("copies ~%5.0f (n=%3d): eff %.1f%% [%.1f-%.1f]\n",
			bkt.X, bkt.N, bkt.Mean, bkt.P20, bkt.P80)
	}
	printOnce("Figure 5", out)

	out = ""
	for _, bkt := range m.Figure6().ByPeers {
		if int(bkt.X)%4 == 0 {
			out += fmt.Sprintf("peers %2.0f (n=%4d): eff %.1f%%\n", bkt.X, bkt.N, bkt.Mean)
		}
	}
	printOnce("Figure 6", out)

	f7 := m.Tally.Figure7()
	out = ""
	for sc := analysis.SizeUnder10MB; sc <= analysis.SizeOver1GB; sc++ {
		out += fmt.Sprintf("%-10s infra %.1f%% p2p %.1f%% all %.1f%%\n",
			sc, f7.PauseRatePct[sc][0], f7.PauseRatePct[sc][1], f7.PauseRatePct[sc][2])
	}
	printOnce("Figure 7", out)

	f8 := m.Figure8(104)
	printOnce("Figure 8", fmt.Sprintf(
		"Customer D: infra-dominant %d | infra 50-100%% of peers %d | infra <50%% %d countries\n",
		f8.ClassN[analysis.InfraDominant], f8.ClassN[analysis.PeersModerate],
		f8.ClassN[analysis.PeersDominant]))

	ast := m.ASTraffic()
	f9a := ast.ComputeFigure9a()
	printOnce("Figure 9a", fmt.Sprintf("%d ASes with p2p peers; CDF points %d\n", f9a.ASes, len(f9a.Points)))

	f9b := ast.ComputeFigure9b()
	b.ReportMetric(f9b.LightSharePct, "%bytes-from-light-ASes")
	printOnce("Figure 9b", fmt.Sprintf(
		"heavy uploaders: %d ASes carry %.0f%% of inter-AS bytes (paper: 2%% of ASes carry 90%%)\n",
		f9b.HeavyASes, 100-f9b.LightSharePct))

	f9c := ast.ComputeFigure9c()
	printOnce("Figure 9c", fmt.Sprintf("median IPs/AS: light %.0f, heavy %.0f\n",
		f9c.MedianLightIPs, f9c.MedianHeavyIPs))

	f10 := ast.ComputeFigure10()
	b.ReportMetric(f10.HeavyMedianRatio, "heavy-up/down-ratio")
	printOnce("Figure 10", fmt.Sprintf(
		"%d ASes; heavy uploaders' median up/down ratio %.2f (paper: ≈balanced)\n",
		len(f10.Points), f10.HeavyMedianRatio))

	f11 := ast.ComputeFigure11(in.Atlas)
	printOnce("Figure 11", fmt.Sprintf(
		"%d heavy pairs; median pairwise imbalance %.2f; %.0f%% of bytes on direct links (paper: 35%%)\n",
		len(f11.Pairs), f11.MedianRatio, f11.PctDirectBytes))

	f12 := m.Figure12()
	b.ReportMetric(f12.PctNonLinear, "%non-linear")
	printOnce("Figure 12", fmt.Sprintf(
		"%d graphs; non-linear %.2f%% (paper 0.6%%); short-branch %.0f%% two-long %.0f%% many %.0f%% irregular %.0f%%\n",
		f12.Graphs, f12.PctNonLinear,
		f12.PctOfNonLinear[analysis.GraphShortBranch],
		f12.PctOfNonLinear[analysis.GraphTwoLong],
		f12.PctOfNonLinear[analysis.GraphManyBranches],
		f12.PctOfNonLinear[analysis.GraphIrregular]))

	h := m.Headlines()
	b.ReportMetric(h.MeanPeerEfficiencyPct, "%mean-peer-eff")
	b.ReportMetric(h.PctBytesP2PFiles, "%bytes-p2p-files")
	printOnce("Headline §5.1", fmt.Sprintf(
		"p2p files %.1f%% of catalog carry %.1f%% of bytes (paper 1.7/57.4); peer efficiency mean %.1f%% agg %.1f%% (paper 71.4)\n",
		h.PctFilesP2PEnabled, h.PctBytesP2PFiles, h.MeanPeerEfficiencyPct, h.AggregatePeerEfficiencyPct))
	printOnce("Headline §5.2", fmt.Sprintf(
		"completion %.1f%%/%.1f%% (paper 94/92); system failures %.2f%%/%.2f%% (0.1/0.2); aborts %.1f%%/%.1f%% (3/8)\n",
		h.CompletionInfraPct, h.CompletionP2PPct,
		h.FailSystemInfraPct, h.FailSystemP2PPct,
		h.AbortInfraPct, h.AbortP2PPct))

	b.ReportMetric(h.IntraASPct, "%intra-AS")
	printOnce("Headline §6.1", fmt.Sprintf("intra-AS p2p traffic %.1f%% (paper 18%%)\n", h.IntraASPct))

	mob := m.Mobility()
	printOnce("Headline §6.2", fmt.Sprintf(
		"GUIDs in 1/2/>2 ASes: %.1f/%.1f/%.1f%% (paper 80.6/13.4/6.0); within 10km %.1f%% (paper 77%%)\n",
		mob.Pct1AS, mob.Pct2AS, mob.PctMoreAS, mob.PctWithin10Km))
}

// ---- Ablations: the design choices DESIGN.md calls out. Each variant is
// simulated once and the per-iteration work is the comparison analysis.

type ablationKey string

var (
	ablMu    sync.Mutex
	ablCache = map[ablationKey]*sim.Result{}
)

func ablationRun(b *testing.B, key ablationKey, mutate func(*sim.ScenarioConfig)) *sim.Result {
	b.Helper()
	ablMu.Lock()
	defer ablMu.Unlock()
	if res, ok := ablCache[key]; ok {
		return res
	}
	cfg := sim.SmallScenario()
	cfg.NumPeers = 2500
	cfg.TotalDownloads = 8000
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ablCache[key] = res
	return res
}

// ablationHeadlines analyses an ablation month (SmallScenario's 10 days).
func ablationHeadlines(res *sim.Result) analysis.Headlines {
	return analysis.Analyze(res.Input(), 10).Headlines()
}

// topUploaderShare returns the byte share of the busiest 1% of uploading
// peers — the workload-concentration measure the per-object upload cap is
// meant to tame (§3.9).
func topUploaderShare(res *sim.Result) float64 {
	per := make(map[string]int64)
	var total int64
	for i := range res.Log.Downloads {
		for _, pc := range res.Log.Downloads[i].FromPeers {
			per[pc.GUID.String()] += pc.Bytes
			total += pc.Bytes
		}
	}
	if total == 0 {
		return 0
	}
	var vals []float64
	for _, b := range per {
		vals = append(vals, float64(b))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	top := len(vals) / 100
	if top < 1 {
		top = 1
	}
	var sum float64
	for i := 0; i < top; i++ {
		sum += vals[i]
	}
	return 100 * sum / float64(total)
}

func BenchmarkAblation_SelectionPolicy(b *testing.B) {
	local := ablationRun(b, "sel-local", func(c *sim.ScenarioConfig) {
		c.MaxServersPerDownload = 5
	})
	random := ablationRun(b, "sel-random", func(c *sim.ScenarioConfig) {
		c.MaxServersPerDownload = 5
		c.Policy.LocalityAware = false
	})
	var li, ri float64
	for i := 0; i < b.N; i++ {
		li = ablationHeadlines(local).IntraASPct
		ri = ablationHeadlines(random).IntraASPct
	}
	b.StopTimer()
	b.ReportMetric(li, "%intra-AS-locality")
	b.ReportMetric(ri, "%intra-AS-random")
	printOnce("Ablation: selection policy", fmt.Sprintf(
		"intra-AS p2p share: locality-aware %.1f%% vs random %.1f%%\n", li, ri))
}

func BenchmarkAblation_Backstop(b *testing.B) {
	with := ablationRun(b, "backstop-on", nil)
	// The pure-p2p comparison needs initial seeders (a pure p2p CDN has
	// them; the hybrid's origin is the edge).
	without := ablationRun(b, "backstop-off", func(c *sim.ScenarioConfig) {
		c.BackstopEnabled = false
		c.SeedCopiesPerObject = 5
	})
	var cw, cwo float64
	for i := 0; i < b.N; i++ {
		// Completion among p2p-enabled downloads only: the class both
		// architectures can serve.
		cw = ablationHeadlines(with).CompletionP2PPct
		cwo = ablationHeadlines(without).CompletionP2PPct
	}
	b.StopTimer()
	b.ReportMetric(cw, "%completion-hybrid")
	b.ReportMetric(cwo, "%completion-pure-p2p")
	printOnce("Ablation: edge backstop", fmt.Sprintf(
		"p2p-file completion: hybrid %.1f%% vs pure p2p (5 seeds/object) %.1f%%\n", cw, cwo))
}

func BenchmarkAblation_UploadFraction(b *testing.B) {
	fractions := []float64{0.1, 0.31, 0.7}
	var effs []float64
	for i := 0; i < b.N; i++ {
		effs = effs[:0]
		for _, f := range fractions {
			frac := f
			res := ablationRun(b, ablationKey(fmt.Sprintf("upfrac-%.2f", frac)),
				func(c *sim.ScenarioConfig) { c.UploadEnabledOverride = frac })
			effs = append(effs, ablationHeadlines(res).AggregatePeerEfficiencyPct)
		}
	}
	b.StopTimer()
	var out string
	for i, f := range fractions {
		out += fmt.Sprintf("uploads enabled %.0f%% -> aggregate peer efficiency %.1f%%\n",
			100*f, effs[i])
	}
	printOnce("Ablation: upload-enabled fraction", out)
}

func BenchmarkAblation_UploadCap(b *testing.B) {
	capped := ablationRun(b, "cap-tight", func(c *sim.ScenarioConfig) {
		c.PerObjectUploadCap = 3
	})
	uncapped := ablationRun(b, "cap-off", func(c *sim.ScenarioConfig) {
		c.PerObjectUploadCap = 0
	})
	var sc, su float64
	for i := 0; i < b.N; i++ {
		sc = topUploaderShare(capped)
		su = topUploaderShare(uncapped)
	}
	b.StopTimer()
	b.ReportMetric(sc, "%top1%-share-capped")
	b.ReportMetric(su, "%top1%-share-uncapped")
	printOnce("Ablation: per-object upload cap", fmt.Sprintf(
		"byte share of busiest 1%% of uploaders: cap=3 %.1f%% vs uncapped %.1f%%\n", sc, su))
}

// BenchmarkAblation_DNFailure quantifies the §3.8 robustness claim: wiping
// every DN database mid-trace barely dents peer efficiency, because the
// directory is soft state that the peers re-announce.
func BenchmarkAblation_DNFailure(b *testing.B) {
	healthy := ablationRun(b, "dn-healthy", nil)
	failed := ablationRun(b, "dn-failed", func(c *sim.ScenarioConfig) {
		c.DNFailureAtDay = 5
	})
	var eh, ef float64
	for i := 0; i < b.N; i++ {
		eh = ablationHeadlines(healthy).AggregatePeerEfficiencyPct
		ef = ablationHeadlines(failed).AggregatePeerEfficiencyPct
	}
	b.StopTimer()
	b.ReportMetric(eh, "%eff-healthy")
	b.ReportMetric(ef, "%eff-after-dn-loss")
	printOnce("Ablation: DN failure (§3.8)", fmt.Sprintf(
		"aggregate peer efficiency: healthy %.1f%% vs total DN loss on day 5 %.1f%%\n", eh, ef))
}

// BenchmarkSimulation_Month measures the end-to-end cost of simulating the
// shared scenario (population + catalog + workload + event loop).
func BenchmarkSimulation_Month(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.SmallScenario()
		cfg.NumPeers = 1500
		cfg.TotalDownloads = 3000
		cfg.Days = 5
		if _, err := sim.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
