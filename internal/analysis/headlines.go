package analysis

import (
	"netsession/internal/geo"
	"netsession/internal/id"
)

// Headlines collects the scalar results quoted in the paper's running text.
type Headlines struct {
	// §5.1: "peer-to-peer downloads were enabled for only 1.7% of the
	// files, but these downloads accounted for 57.4% of the downloaded
	// bytes".
	PctFilesP2PEnabled float64
	PctBytesP2PFiles   float64
	// §5.1: "the average peer efficiency for peer-assisted downloads was
	// 71.4%" (per-download mean), plus the byte-weighted aggregate.
	MeanPeerEfficiencyPct      float64
	AggregatePeerEfficiencyPct float64

	// §5.2 outcome rates, per class (infra-only / peer-assisted).
	CompletionInfraPct float64
	CompletionP2PPct   float64
	FailSystemInfraPct float64
	FailSystemP2PPct   float64
	AbortInfraPct      float64
	AbortP2PPct        float64

	// §6.1: intra-AS share of p2p traffic (18% in the paper).
	IntraASPct float64

	// §6.2 mobility: GUIDs seen in 1 / 2 / >2 ASes; fraction of GUIDs
	// whose farthest two geolocations are within 10 km.
	Pct1AS        float64
	Pct2AS        float64
	PctMoreAS     float64
	PctWithin10Km float64
	// NewConnectionsPerMinute is the control-plane login churn.
	NewConnectionsPerMinute float64
}

// ComputeHeadlines derives the scalar summary from the logs.
func ComputeHeadlines(in *Input, traceDays int) Headlines {
	return headlines(in, TallyInput(in), traceDays)
}

// headlines joins the download tally with the catalog, AS-traffic and
// mobility passes.
func headlines(in *Input, t *Tally, traceDays int) Headlines {
	var h Headlines

	// Catalog policy share.
	p2pFiles := 0
	for _, f := range in.Catalog.Files {
		if f.Object.P2PEnabled {
			p2pFiles++
		}
	}
	h.PctFilesP2PEnabled = pct(int64(p2pFiles), int64(len(in.Catalog.Files)))

	sum := t.Summary()
	h.PctBytesP2PFiles = sum.PctBytesP2PFiles
	h.MeanPeerEfficiencyPct = sum.MeanPeerEfficiencyPct
	h.AggregatePeerEfficiencyPct = sum.AggregatePeerEfficiencyPct
	h.CompletionInfraPct, h.CompletionP2PPct = sum.CompletionInfraPct, sum.CompletionP2PPct
	h.AbortInfraPct, h.AbortP2PPct = sum.AbortInfraPct, sum.AbortP2PPct
	h.FailSystemInfraPct = pct(t.failedSys[classInfra], t.n[classInfra])
	h.FailSystemP2PPct = pct(t.failedSys[classP2P], t.n[classP2P])

	h.IntraASPct = 100 * ComputeASTraffic(in).IntraASFraction()

	mob := ComputeMobility(in)
	h.Pct1AS, h.Pct2AS, h.PctMoreAS, h.PctWithin10Km =
		mob.Pct1AS, mob.Pct2AS, mob.PctMoreAS, mob.PctWithin10Km
	if traceDays > 0 {
		h.NewConnectionsPerMinute = float64(len(in.Log.Logins)) / (float64(traceDays) * 24 * 60)
	}
	return h
}

// Mobility summarizes peer movement (§6.2).
type Mobility struct {
	GUIDs         int
	Pct1AS        float64
	Pct2AS        float64
	PctMoreAS     float64
	PctWithin10Km float64
}

// ComputeMobility counts, per GUID, the distinct ASes seen across logins and
// the maximum distance between any two login geolocations.
func ComputeMobility(in *Input) Mobility {
	type state struct {
		ases   map[geo.ASN]bool
		coords []geo.Coordinates
	}
	st := make(map[id.GUID]*state)
	for i := range in.Log.Logins {
		l := &in.Log.Logins[i]
		rec, ok := in.lookup(l.IP)
		if !ok {
			continue
		}
		s := st[l.GUID]
		if s == nil {
			s = &state{ases: make(map[geo.ASN]bool)}
			st[l.GUID] = s
		}
		if !s.ases[rec.ASN] {
			s.ases[rec.ASN] = true
		}
		// Track distinct coordinates only (windows are tiny: a peer visits
		// a handful of vantage points).
		seen := false
		for _, c := range s.coords {
			if c == rec.Coord {
				seen = true
				break
			}
		}
		if !seen {
			s.coords = append(s.coords, rec.Coord)
		}
	}
	var m Mobility
	var one, two, more, within int
	for _, s := range st {
		m.GUIDs++
		switch len(s.ases) {
		case 1:
			one++
		case 2:
			two++
		default:
			more++
		}
		maxKm := 0.0
		for i := range s.coords {
			for j := i + 1; j < len(s.coords); j++ {
				if d := geo.DistanceKm(s.coords[i], s.coords[j]); d > maxKm {
					maxKm = d
				}
			}
		}
		if maxKm <= 10 {
			within++
		}
	}
	if m.GUIDs > 0 {
		m.Pct1AS = 100 * float64(one) / float64(m.GUIDs)
		m.Pct2AS = 100 * float64(two) / float64(m.GUIDs)
		m.PctMoreAS = 100 * float64(more) / float64(m.GUIDs)
		m.PctWithin10Km = 100 * float64(within) / float64(m.GUIDs)
	}
	return m
}
