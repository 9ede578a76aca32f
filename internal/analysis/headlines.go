package analysis

import "netsession/internal/geo"

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

// Headlines joins the catalog's policy share with the download tally, the
// AS traffic and mobility views.
func (m *Month) Headlines() Headlines {
	var h Headlines

	p2pFiles := 0
	for _, f := range m.in.Catalog.Files {
		if f.Object.P2PEnabled {
			p2pFiles++
		}
	}
	h.PctFilesP2PEnabled = pct(int64(p2pFiles), int64(len(m.in.Catalog.Files)))

	t := m.Tally
	sum := t.Summary()
	h.PctBytesP2PFiles = sum.PctBytesP2PFiles
	h.MeanPeerEfficiencyPct = sum.MeanPeerEfficiencyPct
	h.AggregatePeerEfficiencyPct = sum.AggregatePeerEfficiencyPct
	h.CompletionInfraPct, h.CompletionP2PPct = sum.CompletionInfraPct, sum.CompletionP2PPct
	h.AbortInfraPct, h.AbortP2PPct = sum.AbortInfraPct, sum.AbortP2PPct
	h.FailSystemInfraPct = pct(t.failedSys[classInfra], t.n[classInfra])
	h.FailSystemP2PPct = pct(t.failedSys[classP2P], t.n[classP2P])

	h.IntraASPct = 100 * m.ast.IntraASFraction()

	mob := m.Mobility()
	h.Pct1AS, h.Pct2AS, h.PctMoreAS, h.PctWithin10Km =
		mob.Pct1AS, mob.Pct2AS, mob.PctMoreAS, mob.PctWithin10Km
	if m.traceDays > 0 {
		h.NewConnectionsPerMinute = float64(m.logins) / (float64(m.traceDays) * 24 * 60)
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

// Mobility counts, per located installation, the distinct ASes seen across
// its logins and the largest distance between two login geolocations.
func (m *Month) Mobility() Mobility {
	var mob Mobility
	var one, two, more, within int
	for _, inst := range m.installs {
		if !inst.located {
			continue
		}
		mob.GUIDs++
		switch len(inst.ases) {
		case 1:
			one++
		case 2:
			two++
		default:
			more++
		}
		maxKm := 0.0
		for i := range inst.coords {
			for j := i + 1; j < len(inst.coords); j++ {
				if d := geo.DistanceKm(inst.coords[i], inst.coords[j]); d > maxKm {
					maxKm = d
				}
			}
		}
		if maxKm <= 10 {
			within++
		}
	}
	if mob.GUIDs > 0 {
		mob.Pct1AS = 100 * float64(one) / float64(mob.GUIDs)
		mob.Pct2AS = 100 * float64(two) / float64(mob.GUIDs)
		mob.PctMoreAS = 100 * float64(more) / float64(mob.GUIDs)
		mob.PctWithin10Km = 100 * float64(within) / float64(mob.GUIDs)
	}
	return mob
}
