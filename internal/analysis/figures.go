package analysis

import (
	"math"
	"sort"

	"netsession/internal/content"
	"netsession/internal/geo"
)

// Figure2Bubble is one bubble of the peer-location map (paper Figure 2).
type Figure2Bubble struct {
	Location geo.LocationID
	City     string
	Country  geo.CountryCode
	Coord    geo.Coordinates
	Peers    int
}

// Figure2 counts installations per first located login.
func (m *Month) Figure2() []Figure2Bubble {
	counts := make(map[geo.LocationID]int)
	for _, inst := range m.installs {
		if inst.located {
			counts[inst.firstLoc]++
		}
	}
	out := make([]Figure2Bubble, 0, len(counts))
	for locID, n := range counts {
		loc := m.in.Atlas.Location(locID)
		out = append(out, Figure2Bubble{
			Location: locID, City: loc.City, Country: loc.Country,
			Coord: loc.Coord, Peers: n,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Peers != out[j].Peers {
			return out[i].Peers > out[j].Peers
		}
		return out[i].Location < out[j].Location // ties must not follow map order
	})
	return out
}

// Figure3a is the request CDF by object size for the three download
// classes.
type Figure3a struct {
	InfraOnly    []Point // x: object size in GB, y: CDF %
	All          []Point
	PeerAssisted []Point
	// PctPeerAssistedOver500MB is the §4.4 headline: 82% in the paper.
	PctPeerAssistedOver500MB float64
}

// Figure3b is content popularity: downloads per object, by rank.
type Figure3b struct {
	// Counts[i] is the number of downloads of the rank-(i+1) object.
	Counts []int
}

// PowerLawSlope fits log(count) ~ alpha*log(rank) over the head of the
// distribution and returns -alpha (≈ the Zipf exponent).
func (f Figure3b) PowerLawSlope() float64 {
	n := len(f.Counts)
	if n > 1000 {
		n = 1000
	}
	if n < 10 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	m := 0
	for i := 0; i < n; i++ {
		if f.Counts[i] <= 0 {
			break
		}
		x := math.Log(float64(i + 1))
		y := math.Log(float64(f.Counts[i]))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		m++
	}
	if m < 2 {
		return 0
	}
	fm := float64(m)
	return -(fm*sxy - sx*sy) / (fm*sxx - sx*sx)
}

// Figure3c is bytes served per hour across the trace, in GMT and in the
// requesters' local time.
type Figure3c struct {
	// GMT[h] is bytes served in trace hour h.
	GMT []float64
	// LocalHourOfDay[h] is total bytes attributed to local hour-of-day h
	// (0..23); its peak-to-trough ratio shows the diurnal cycle.
	LocalHourOfDay [24]float64
}

// Figure3c is the bytes served over the trace.
func (m *Month) Figure3c() Figure3c { return m.f3c }

// Figure4 compares download-speed CDFs in the two networks with the most
// downloads: edge-only versus mostly-peer-assisted.
type Figure4 struct {
	ASX Figure4AS
	ASY Figure4AS
}

// Figure4AS is one AS panel.
type Figure4AS struct {
	ASN      geo.ASN
	EdgeOnly []Point // x: Mbps, y: CDF %
	P2PHeavy []Point
	// Medians, for the headline comparison.
	MedianEdgeMbps float64
	MedianP2PMbps  float64
}

// Figure4 takes the two ASes with the most downloads and builds their speed
// CDFs per §5.2 speed class: "either a) all the bytes came from the edge
// servers, or b) at least 50% of the bytes came from peers".
func (m *Month) Figure4() Figure4 {
	order := make([]geo.ASN, 0, len(m.perAS))
	for as := range m.perAS {
		order = append(order, as)
	}
	sort.Slice(order, func(i, j int) bool {
		if ni, nj := m.perAS[order[i]].n, m.perAS[order[j]].n; ni != nj {
			return ni > nj
		}
		return order[i] < order[j]
	})
	var out Figure4
	xs := LogSpace(0.1, 100, 25)
	for pi, panel := range []*Figure4AS{&out.ASX, &out.ASY} {
		var speed [2][]float64
		if pi < len(order) {
			panel.ASN = order[pi]
			speed = m.perAS[panel.ASN].speed
		}
		ec, pc := NewCDF(speed[classInfra]), NewCDF(speed[classP2P])
		panel.EdgeOnly = ec.Points(xs)
		panel.P2PHeavy = pc.Points(xs)
		panel.MedianEdgeMbps = ec.Quantile(0.5)
		panel.MedianP2PMbps = pc.Quantile(0.5)
	}
	return out
}

// Figure5 relates registered file copies to average peer efficiency.
type Figure5 struct {
	Buckets []Bucket // X: copies, Mean/P20/P80: efficiency %
}

// Figure5 relates each object's DN registrations to the mean peer
// efficiency of its peer-assisted downloads, bucketed by copy count.
func (m *Month) Figure5() Figure5 {
	var xs, ys []float64
	maxCopies := 1.0
	for _, o := range m.objects {
		c := float64(o.copies)
		if o.effN == 0 || c < 1 {
			continue
		}
		xs = append(xs, c)
		ys = append(ys, o.effSum/float64(o.effN))
		if c > maxCopies {
			maxCopies = c
		}
	}
	return Figure5{Buckets: BucketizeLog(xs, ys, 1, maxCopies+1, 12)}
}

// Figure6 relates the number of peers the control plane initially returned
// to peer efficiency.
type Figure6 struct {
	// ByPeers[k] aggregates downloads whose first query returned k peers.
	ByPeers []Bucket
}

// Figure6 groups peer-assisted downloads by the peers their first query
// returned.
func (m *Month) Figure6() Figure6 {
	maxK := 0
	for k := range m.byPeers {
		maxK = max(maxK, k)
	}
	var out []Bucket
	for k := 0; k <= maxK; k++ {
		g := m.byPeers[k]
		if len(g) == 0 {
			continue
		}
		out = append(out, Bucket{
			X: float64(k), N: len(g), Mean: Mean(g),
			P20: Percentile(g, 20), P80: Percentile(g, 80),
		})
	}
	return Figure6{ByPeers: out}
}

// SizeClass is a Figure 7 file-size bucket.
type SizeClass int

// Figure 7 size classes.
const (
	SizeUnder10MB SizeClass = iota
	Size10to100MB
	Size100MBto1GB
	SizeOver1GB
	numSizeClasses
)

func (s SizeClass) String() string {
	switch s {
	case SizeUnder10MB:
		return "<10MB"
	case Size10to100MB:
		return "10-100MB"
	case Size100MBto1GB:
		return "100MB-1GB"
	case SizeOver1GB:
		return ">1GB"
	}
	return "?"
}

func classifySize(size int64) SizeClass {
	switch {
	case size < 10e6:
		return SizeUnder10MB
	case size < 100e6:
		return Size10to100MB
	case size < 1e9:
		return Size100MBto1GB
	default:
		return SizeOver1GB
	}
}

// Figure7 is the pause/termination rate per size class, for infra-only,
// peer-assisted, and all downloads.
type Figure7 struct {
	// PauseRatePct[class][0]=infra-only, [1]=peer-assisted, [2]=all.
	PauseRatePct [numSizeClasses][3]float64
	N            [numSizeClasses][3]int
}

// CountryClass classifies a country by how much of one provider's bytes the
// peers served relative to the infrastructure (paper Figure 8).
type CountryClass int

// Figure 8 classes.
const (
	// InfraDominant: infrastructure served more than the peers.
	InfraDominant CountryClass = iota
	// PeersModerate: peers served 50–100% of what the infrastructure did…
	// i.e. infra serves between 50% and 100% of the peers' volume.
	PeersModerate
	// PeersDominant: infrastructure served less than 50% of the peers'
	// volume.
	PeersDominant
)

func (c CountryClass) String() string {
	switch c {
	case InfraDominant:
		return "infra>peers"
	case PeersModerate:
		return "infra 50-100% of peers"
	case PeersDominant:
		return "infra <50% of peers"
	}
	return "?"
}

// Figure8Country is one country's classification.
type Figure8Country struct {
	Country    geo.CountryCode
	BytesInfra int64
	BytesPeers int64
	Class      CountryClass
}

// Figure8 is the per-country contribution map for one provider.
type Figure8 struct {
	CP        content.CPCode
	Countries []Figure8Country
	ClassN    [3]int
}

// Figure8 classifies each country by one provider's completed downloads.
func (m *Month) Figure8(cp content.CPCode) Figure8 {
	out := Figure8{CP: cp}
	for k, b := range m.countryBytes {
		if k.cp != cp {
			continue
		}
		c := Figure8Country{Country: k.country, BytesInfra: b[0], BytesPeers: b[1]}
		switch {
		case c.BytesPeers == 0 || c.BytesInfra > c.BytesPeers:
			c.Class = InfraDominant
		case float64(c.BytesInfra) >= 0.5*float64(c.BytesPeers):
			c.Class = PeersModerate
		default:
			c.Class = PeersDominant
		}
		out.ClassN[c.Class]++
		out.Countries = append(out.Countries, c)
	}
	sort.Slice(out.Countries, func(i, j int) bool {
		return out.Countries[i].Country < out.Countries[j].Country
	})
	return out
}
