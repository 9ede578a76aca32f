package analysis

import (
	"fmt"
	"strings"

	"netsession/internal/geo"
)

// Report renders every table and figure as text, in paper order. The
// experiment harness writes this into EXPERIMENTS.md next to the paper's
// own numbers.
func (m *Month) Report() string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	t1 := m.Table1()
	w("## Table 1 — Overall statistics")
	w("Log entries:          %d", t1.LogEntries)
	w("Number of GUIDs:      %d", t1.GUIDs)
	w("Control plane servers:%d", t1.ControlPlaneServers)
	w("Distinct URLs:        %d", t1.DistinctURLs)
	w("Distinct IPs:         %d", t1.DistinctIPs)
	w("Downloads initiated:  %d", t1.DownloadsInitiated)
	w("Distinct locations:   %d", t1.DistinctLocations)
	w("Distinct ASes:        %d", t1.DistinctASes)
	w("Distinct countries:   %d", t1.DistinctCountries)
	w("")

	w("## Table 2 — Download distribution per customer (%%)")
	header := "Customer        "
	for _, reg := range geo.ReportRegions {
		header += fmt.Sprintf("%15s", string(reg))
	}
	w("%s", header)
	for _, row := range m.Table2() {
		line := fmt.Sprintf("%-16s", row.Customer)
		for _, reg := range geo.ReportRegions {
			line += fmt.Sprintf("%14.1f%%", row.Share[reg])
		}
		w("%s", line)
	}
	w("")

	t3 := m.Table3()
	w("## Table 3 — Upload-setting changes")
	w("%-18s %10s %8s %8s %8s", "Uploads initially", "Nodes", "0", "1", ">=2")
	for _, init := range []bool{false, true} {
		name := "Disabled"
		if init {
			name = "Enabled"
		}
		r := t3.Rows[init]
		w("%-18s %10d %7.2f%% %7.2f%% %7.2f%%", name, r.Nodes, r.PctZero, r.PctOne, r.PctTwoPlus)
	}
	w("")

	w("## Table 4 — Peers with uploads enabled per customer")
	for _, row := range m.Table4() {
		w("%-12s %6.1f%%  (%d peers)", row.Customer, row.PctEnabled, row.Peers)
	}
	w("")

	f2 := m.Figure2()
	w("## Figure 2 — Peer locations (top 10 bubbles of %d)", len(f2))
	for i, bub := range f2 {
		if i >= 10 {
			break
		}
		w("%-8s %-4s (%.1f,%.1f): %d peers", bub.City, bub.Country, bub.Coord.Lat, bub.Coord.Lon, bub.Peers)
	}
	w("")

	f3a := m.Tally.Figure3a()
	w("## Figure 3a — Request CDF by object size (GB)")
	w("%10s %12s %12s %12s", "size(GB)", "infra-only", "all", "peer-assist")
	for i := range f3a.All {
		w("%10.3f %11.1f%% %11.1f%% %11.1f%%",
			f3a.All[i].X, f3a.InfraOnly[i].Y, f3a.All[i].Y, f3a.PeerAssisted[i].Y)
	}
	w("peer-assisted requests >500MB: %.1f%% (paper: 82%%)", f3a.PctPeerAssistedOver500MB)
	w("")

	f3b := m.Tally.Figure3b()
	w("## Figure 3b — Content popularity (downloads vs rank)")
	for _, rank := range []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000} {
		if rank <= len(f3b.Counts) {
			w("rank %5d: %d downloads", rank, f3b.Counts[rank-1])
		}
	}
	w("fitted power-law exponent: %.2f", f3b.PowerLawSlope())
	w("")

	f3c := m.Figure3c()
	w("## Figure 3c — Bytes served over time (per-day totals, GB)")
	for d := 0; d+24 <= len(f3c.GMT); d += 24 {
		var day float64
		for h := 0; h < 24; h++ {
			day += f3c.GMT[d+h]
		}
		if (d/24)%5 == 0 {
			w("day %2d: %8.1f GB", d/24+1, day/1e9)
		}
	}
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
		w("local-time diurnal peak/trough ratio: %.2f", peak/trough)
	}
	w("")

	f4 := m.Figure4()
	w("## Figure 4 — Download speed, edge-only vs >50%% p2p (two largest ASes)")
	for _, panel := range []struct {
		name string
		p    Figure4AS
	}{{"AS X", f4.ASX}, {"AS Y", f4.ASY}} {
		w("%s (AS%d): median edge-only %.2f Mbps, median >50%%-p2p %.2f Mbps",
			panel.name, panel.p.ASN, panel.p.MedianEdgeMbps, panel.p.MedianP2PMbps)
	}
	w("")

	f5 := m.Figure5()
	w("## Figure 5 — Registered copies vs peer efficiency")
	w("%12s %6s %8s %8s %8s", "copies", "files", "mean", "p20", "p80")
	for _, bkt := range f5.Buckets {
		w("%12.0f %6d %7.1f%% %7.1f%% %7.1f%%", bkt.X, bkt.N, bkt.Mean, bkt.P20, bkt.P80)
	}
	w("")

	f6 := m.Figure6()
	w("## Figure 6 — Peers initially returned vs peer efficiency")
	w("%6s %8s %8s", "peers", "dls", "mean eff")
	for _, bkt := range f6.ByPeers {
		if int(bkt.X)%2 == 0 || bkt.X < 6 {
			w("%6.0f %8d %7.1f%%", bkt.X, bkt.N, bkt.Mean)
		}
	}
	w("")

	f7 := m.Tally.Figure7()
	w("## Figure 7 — Pause rate by file size")
	w("%-12s %12s %12s %12s", "size", "infra-only", "peer-assist", "all")
	for sc := SizeUnder10MB; sc < numSizeClasses; sc++ {
		w("%-12s %11.1f%% %11.1f%% %11.1f%%", sc,
			f7.PauseRatePct[sc][0], f7.PauseRatePct[sc][1], f7.PauseRatePct[sc][2])
	}
	w("")

	// Figure 8 uses the most p2p-heavy provider (Customer D).
	f8 := m.Figure8(104)
	w("## Figure 8 — Peer contributions per country (Customer D)")
	w("infra>peers: %d countries, infra 50-100%% of peers: %d, infra <50%% of peers: %d",
		f8.ClassN[InfraDominant], f8.ClassN[PeersModerate], f8.ClassN[PeersDominant])
	w("")

	ast := m.ASTraffic()
	w("## §6.1 / Figures 9-11 — AS-level traffic")
	w("total p2p bytes: %.2f GB, intra-AS: %.1f%% (paper: 18%%)",
		float64(ast.TotalP2PBytes)/1e9, 100*ast.IntraASFraction())
	f9a := ast.ComputeFigure9a()
	w("Figure 9a: %d ASes with peers; per-AS inter-AS upload CDF:", f9a.ASes)
	for _, pt := range f9a.Points {
		if pt.Y > 0.5 && pt.Y < 99.9 {
			w("  <= %10.0f bytes: %5.1f%% of ASes", pt.X, pt.Y)
		}
	}
	f9b := ast.ComputeFigure9b()
	w("Figure 9b: heavy uploaders: %d ASes carry %.0f%% of bytes (light ASes carry %.1f%%)",
		f9b.HeavyASes, 100-f9b.LightSharePct, f9b.LightSharePct)
	f9c := ast.ComputeFigure9c()
	w("Figure 9c: median IPs per AS — light %.0f, heavy %.0f", f9c.MedianLightIPs, f9c.MedianHeavyIPs)
	f10 := ast.ComputeFigure10()
	w("Figure 10: heavy uploaders' median up/down ratio: %.2f (1.0 = balanced)", f10.HeavyMedianRatio)
	f11 := ast.ComputeFigure11(m.in.Atlas)
	w("Figure 11: %d heavy pairs, median pairwise imbalance %.2f, %.0f%% of heavy-pair bytes on direct links (paper: 35%%)",
		len(f11.Pairs), f11.MedianRatio, f11.PctDirectBytes)
	w("")

	f12 := m.Figure12()
	w("## Figure 12 — Secondary-GUID graphs")
	w("graphs (>=3 vertices): %d, non-linear: %.2f%% (paper: 0.6%%)", f12.Graphs, f12.PctNonLinear)
	for c := GraphShortBranch; c < numGraphClasses; c++ {
		w("  %-18s %5.1f%% of non-linear (%d)", c, f12.PctOfNonLinear[c], f12.Count[c])
	}
	w("")

	if sf := m.Tally.StreamingFigure(); sf.Sessions > 0 {
		w("## Streaming delivery — startup, rebuffers, deadlines")
		w("sessions: %d", sf.Sessions)
		w("startup delay: mean %.0fms, p50 %dms, p95 %dms",
			sf.StartupMeanMs, sf.StartupP50Ms, sf.StartupP95Ms)
		w("rebuffers: %.1f%% of sessions stalled; %d events, %d ms paused",
			sf.PctWithRebuffer, sf.RebufferEvents, sf.RebufferMs)
		w("deadline misses: %.2f%% of played pieces; %d urgent bytes edge-rescued",
			sf.DeadlineMissPct, sf.EdgeRescueBytes)
		w("")
	}

	h := m.Headlines()
	w("## Headlines")
	w("p2p-enabled files: %.1f%% of catalog carrying %.1f%% of bytes (paper: 1.7%% / 57.4%%)",
		h.PctFilesP2PEnabled, h.PctBytesP2PFiles)
	w("peer efficiency: mean %.1f%%, byte-weighted %.1f%% (paper mean: 71.4%%)",
		h.MeanPeerEfficiencyPct, h.AggregatePeerEfficiencyPct)
	w("completion: infra-only %.1f%%, peer-assisted %.1f%% (paper: 94%% / 92%%)",
		h.CompletionInfraPct, h.CompletionP2PPct)
	w("system failures: %.2f%% / %.2f%% (paper: 0.1%% / 0.2%%)",
		h.FailSystemInfraPct, h.FailSystemP2PPct)
	w("aborted/paused: %.1f%% / %.1f%% (paper: 3%% / 8%%)", h.AbortInfraPct, h.AbortP2PPct)
	w("mobility: %.1f%% / %.1f%% / %.1f%% of GUIDs in 1/2/>2 ASes (paper: 80.6/13.4/6.0)",
		h.Pct1AS, h.Pct2AS, h.PctMoreAS)
	w("within 10 km: %.1f%% (paper: 77%%)", h.PctWithin10Km)
	w("new control-plane connections per minute: %.1f", h.NewConnectionsPerMinute)

	return b.String()
}
