package analysis

import (
	"sort"

	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/trace"
)

// Table1 is the overall statistics of the data set (paper Table 1).
type Table1 struct {
	LogEntries          int
	GUIDs               int
	ControlPlaneServers int
	DistinctURLs        int
	DistinctIPs         int
	DownloadsInitiated  int
	DistinctLocations   int
	DistinctASes        int
	DistinctCountries   int
}

// Table1 counts the data set: GUIDs and IPs over every log, locations, ASes
// and countries over the IPs EdgeScape resolves.
func (m *Month) Table1() Table1 {
	locs := make(map[geo.LocationID]bool)
	ases := make(map[geo.ASN]bool)
	countries := make(map[geo.CountryCode]bool)
	m.places.each(func(p *place) {
		if p.ok {
			locs[p.rec.Location] = true
			ases[p.rec.ASN] = true
			countries[p.rec.Country] = true
		}
	})
	return Table1{
		LogEntries:          m.logins + m.downloads + m.registrations,
		GUIDs:               len(m.installs),
		ControlPlaneServers: m.in.ControlPlaneServers,
		DistinctURLs:        int(m.Tally.urls.Estimate()),
		DistinctIPs:         m.places.len(),
		DownloadsInitiated:  m.downloads,
		DistinctLocations:   len(locs),
		DistinctASes:        len(ases),
		DistinctCountries:   len(countries),
	}
}

// Table2Row is one customer's regional download distribution in percent.
type Table2Row struct {
	Customer string
	Share    map[geo.ReportRegion]float64
	Total    int
}

// Table2 reproduces Table 2: the global distribution of downloads for the
// ten largest content providers, plus the all-customers row.
func (m *Month) Table2() []Table2Row {
	totals := make(map[content.CPCode]int)
	allRegion := make(map[geo.ReportRegion]int)
	allTotal := 0
	for k, n := range m.regionDownloads {
		totals[k.cp] += n
		allRegion[k.region] += n
		allTotal += n
	}
	var out []Table2Row
	for _, cust := range trace.Customers {
		row := Table2Row{Customer: cust.Name, Share: make(map[geo.ReportRegion]float64), Total: totals[cust.CP]}
		for _, reg := range geo.ReportRegions {
			if t := totals[cust.CP]; t > 0 {
				row.Share[reg] = 100 * float64(m.regionDownloads[cpRegion{cust.CP, reg}]) / float64(t)
			}
		}
		out = append(out, row)
	}
	all := Table2Row{Customer: "All customers", Share: make(map[geo.ReportRegion]float64), Total: allTotal}
	for _, reg := range geo.ReportRegions {
		if allTotal > 0 {
			all.Share[reg] = 100 * float64(allRegion[reg]) / float64(allTotal)
		}
	}
	return append(out, all)
}

// Table3 reports observed changes to the upload-enable setting, split by
// the initial value (paper Table 3).
type Table3 struct {
	// Rows indexed by initial setting: false = "Disabled", true =
	// "Enabled".
	Rows map[bool]Table3Row
}

// Table3Row is one initial-setting cohort.
type Table3Row struct {
	Nodes      int
	PctZero    float64
	PctOne     float64
	PctTwoPlus float64
}

// Table3 counts each installation's setting changes between consecutive
// logins.
func (m *Month) Table3() Table3 {
	counts := map[bool][3]int{}
	nodes := map[bool]int{}
	for _, inst := range m.installs {
		if inst.logins == 0 {
			continue
		}
		c := counts[inst.firstUp]
		c[min(inst.changes, 2)]++
		counts[inst.firstUp] = c
		nodes[inst.firstUp]++
	}
	out := Table3{Rows: make(map[bool]Table3Row)}
	for _, init := range []bool{false, true} {
		n := nodes[init]
		row := Table3Row{Nodes: n}
		if n > 0 {
			c := counts[init]
			row.PctZero = 100 * float64(c[0]) / float64(n)
			row.PctOne = 100 * float64(c[1]) / float64(n)
			row.PctTwoPlus = 100 * float64(c[2]) / float64(n)
		}
		out.Rows[init] = row
	}
	return out
}

// Table4Row is one customer's fraction of upload-enabled peers.
type Table4Row struct {
	Customer   string
	PctEnabled float64
	Peers      int
}

// Table4 reproduces Table 4: the fraction of peers with content uploads
// enabled, grouped by the provider whose bundle installed the client. A
// peer's setting is its last login's, or its install default if it never
// logged in.
func (m *Month) Table4() []Table4Row {
	enabled := make(map[content.CPCode]int)
	total := make(map[content.CPCode]int)
	for _, p := range m.in.Pop.Peers {
		en := p.UploadsEnabledAtInstall
		if inst := m.installs[p.GUID]; inst != nil && inst.logins > 0 {
			en = inst.lastUp
		}
		total[p.InstallCP]++
		if en {
			enabled[p.InstallCP]++
		}
	}
	var out []Table4Row
	for _, cust := range trace.Customers {
		row := Table4Row{Customer: cust.Name, Peers: total[cust.CP]}
		if row.Peers > 0 {
			row.PctEnabled = 100 * float64(enabled[cust.CP]) / float64(row.Peers)
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Customer < out[j].Customer })
	return out
}
