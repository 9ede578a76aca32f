package analysis

import (
	"net/netip"

	"netsession/internal/accounting"
	"netsession/internal/geo"
	"netsession/internal/trace"
)

// Input bundles everything the analyses read: the log set plus the
// geography and population context (the paper's analyses likewise join the
// control-plane logs with EdgeScape data, §4.1).
type Input struct {
	Log     *accounting.Log
	Pop     *trace.Population
	Catalog *trace.Catalog
	Atlas   *geo.Atlas
	Scape   *geo.EdgeScape
	// ControlPlaneServers is reported in Table 1 (197 in the paper); the
	// simulator models one DN per region.
	ControlPlaneServers int
}

// lookup resolves a logged IP through the geolocation service.
func (in *Input) lookup(ip netip.Addr) (geo.Record, bool) {
	return in.Scape.Lookup(ip)
}

// reportRegion maps a logged IP to its Table 2 report region.
func (in *Input) reportRegion(ip netip.Addr) (geo.ReportRegion, bool) {
	rec, ok := in.lookup(ip)
	if !ok {
		return "", false
	}
	loc := in.Atlas.Location(rec.Location)
	return geo.ReportRegionOf(loc), true
}

// TallyInput folds the in-memory download log into an exact tally: each
// record is annotated and converted exactly as the log exporters do, so the
// batch report and the offline analyzer read one definition.
func TallyInput(in *Input) *Tally {
	t, lookup := NewTally(), ScapeLookup(in.Scape)
	for i := range in.Log.Downloads {
		d := OfflineFromRecord(&in.Log.Downloads[i], lookup)
		t.Add(&d)
	}
	return t
}
