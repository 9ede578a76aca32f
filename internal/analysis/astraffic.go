package analysis

import (
	"sort"

	"netsession/internal/geo"
)

// ASTraffic is the AS-level p2p traffic analysis behind §6.1 and Figures
// 9–11: the flow matrix of content bytes between serving and downloading
// ASes, excluding infrastructure bytes (which an infrastructure-only CDN
// would send anyway).
type ASTraffic struct {
	// TotalP2PBytes is all peer-to-peer content bytes observed.
	TotalP2PBytes int64
	// IntraASBytes stayed inside one AS (§6.1: 18% in the paper).
	IntraASBytes int64
	// Up and Down are per-AS inter-AS bytes sent and received.
	Up   map[geo.ASN]int64
	Down map[geo.ASN]int64
	// Pair[a][b] is inter-AS bytes from a to b.
	Pair map[geo.ASN]map[geo.ASN]int64
	// IPs counts distinct peer IPs observed per AS (Figure 9c).
	IPs map[geo.ASN]int
	// Heavy marks the top uploading ASes jointly carrying ≈90% of inter-AS
	// p2p bytes (the paper's "heavy uploaders": 2% of ASes), by heavyCut.
	Heavy map[geo.ASN]bool
	// ASesWithPeers is the number of ASes whose peers participated.
	ASesWithPeers int
}

// ASTraffic is the month's AS-level traffic analysis. Transfers whose
// downloader or uploader IP EdgeScape cannot resolve are left out.
func (m *Month) ASTraffic() *ASTraffic { return m.ast }

// add books one peer-to-peer transfer.
func (t *ASTraffic) add(src, dst geo.ASN, bytes int64) {
	t.TotalP2PBytes += bytes
	if src == dst {
		t.IntraASBytes += bytes
		return
	}
	t.Up[src] += bytes
	t.Down[dst] += bytes
	row := t.Pair[src]
	if row == nil {
		row = make(map[geo.ASN]int64)
		t.Pair[src] = row
	}
	row[dst] += bytes
}

// IntraASFraction returns the share of p2p bytes that never crossed an AS
// boundary.
func (t *ASTraffic) IntraASFraction() float64 {
	if t.TotalP2PBytes == 0 {
		return 0
	}
	return float64(t.IntraASBytes) / float64(t.TotalP2PBytes)
}

// Figure9a is the CDF over ASes of inter-AS bytes uploaded.
type Figure9a struct {
	Points []Point // x: bytes, y: fraction of ASes (%)
	// PctBelow is the fraction of participating ASes uploading less than
	// the paper's 163 GB marker.
	ASes int
}

// ComputeFigure9a builds the per-AS upload CDF, including participating
// ASes that uploaded nothing.
func (t *ASTraffic) ComputeFigure9a() Figure9a {
	var ups []float64
	for as := range t.Up {
		ups = append(ups, float64(t.Up[as]))
	}
	zeros := t.ASesWithPeers - len(ups)
	for i := 0; i < zeros; i++ {
		ups = append(ups, 0)
	}
	xs := LogSpace(1e3, 1e15, 25)
	return Figure9a{Points: NewCDF(ups).Points(xs), ASes: len(ups)}
}

// Figure9b is the concentration curve: cumulative share of total inter-AS
// uploads contributed by ASes uploading less than x bytes.
type Figure9b struct {
	Points []Point
	// HeavyASes and HeavyShare summarize the skew (paper: 2% of ASes send
	// 90% of bytes).
	HeavyASes     int
	LightSharePct float64
}

// ComputeFigure9b builds the concentration curve.
func (t *ASTraffic) ComputeFigure9b() Figure9b {
	var list []int64
	var total int64
	for _, b := range t.Up {
		list = append(list, b)
		total += b
	}
	sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
	xs := LogSpace(1e3, 1e15, 25)
	var out Figure9b
	ci := 0
	var cum int64
	for _, x := range xs {
		for ci < len(list) && float64(list[ci]) <= x {
			cum += list[ci]
			ci++
		}
		y := 0.0
		if total > 0 {
			y = 100 * float64(cum) / float64(total)
		}
		out.Points = append(out.Points, Point{X: x, Y: y})
	}
	out.HeavyASes = len(t.Heavy)
	// Share contributed by everything outside the heavy set.
	var heavyBytes int64
	for as := range t.Heavy {
		heavyBytes += t.Up[as]
	}
	if total > 0 {
		out.LightSharePct = 100 * float64(total-heavyBytes) / float64(total)
	}
	return out
}

// Figure9c compares distinct-IP counts of light and heavy uploader ASes.
type Figure9c struct {
	Light []Point // CDF over ASes: x = #IPs, y = % of ASes
	Heavy []Point
	// Medians for the headline: heavy uploaders simply contain more peers.
	MedianLightIPs float64
	MedianHeavyIPs float64
}

// ComputeFigure9c builds the per-class IP-count CDFs.
func (t *ASTraffic) ComputeFigure9c() Figure9c {
	var light, heavy []float64
	for as, n := range t.IPs {
		if t.Heavy[as] {
			heavy = append(heavy, float64(n))
		} else {
			light = append(light, float64(n))
		}
	}
	xs := LogSpace(1, 1e7, 22)
	lc, hc := NewCDF(light), NewCDF(heavy)
	return Figure9c{
		Light:          lc.Points(xs),
		Heavy:          hc.Points(xs),
		MedianLightIPs: lc.Quantile(0.5),
		MedianHeavyIPs: hc.Quantile(0.5),
	}
}

// Figure10Point is one AS in the upload-vs-download scatter.
type Figure10Point struct {
	AS    geo.ASN
	Up    int64
	Down  int64
	Heavy bool
}

// Figure10 is the per-AS traffic balance scatter.
type Figure10 struct {
	Points []Figure10Point
	// HeavyMedianRatio is the median up/down ratio among heavy uploaders;
	// the paper finds heavy uploaders roughly balanced.
	HeavyMedianRatio float64
}

// ComputeFigure10 builds the scatter.
func (t *ASTraffic) ComputeFigure10() Figure10 {
	seen := make(map[geo.ASN]bool)
	var out Figure10
	add := func(as geo.ASN) {
		if seen[as] {
			return
		}
		seen[as] = true
		out.Points = append(out.Points, Figure10Point{
			AS: as, Up: t.Up[as], Down: t.Down[as], Heavy: t.Heavy[as],
		})
	}
	for as := range t.Up {
		add(as)
	}
	for as := range t.Down {
		add(as)
	}
	var ratios []float64
	for _, p := range out.Points {
		if p.Heavy && p.Down > 0 {
			ratios = append(ratios, float64(p.Up)/float64(p.Down))
		}
	}
	out.HeavyMedianRatio = Percentile(ratios, 50)
	sort.Slice(out.Points, func(i, j int) bool { return out.Points[i].AS < out.Points[j].AS })
	return out
}

// Figure11Pair is one heavy-uploader AS pair's bidirectional traffic.
type Figure11Pair struct {
	A, B     geo.ASN
	AtoB     int64
	BtoA     int64
	Adjacent bool
}

// Figure11 is the pairwise balance among heavy uploaders.
type Figure11 struct {
	Pairs []Figure11Pair
	// MedianRatio is the median max/min ratio across pairs with traffic in
	// both directions (1 = perfectly balanced).
	MedianRatio float64
	// PctDirectBytes is the share of heavy-pair bytes exchanged between
	// directly connected ASes (paper estimates ≈35% via CAIDA).
	PctDirectBytes float64
}

// ComputeFigure11 builds pairwise balance among heavy uploaders, using the
// synthetic AS adjacency as the CAIDA substitute.
func (t *ASTraffic) ComputeFigure11(atlas *geo.Atlas) Figure11 {
	var out Figure11
	var ratios []float64
	var direct, total int64
	for a, row := range t.Pair {
		if !t.Heavy[a] {
			continue
		}
		for b, ab := range row {
			if !t.Heavy[b] || a >= b {
				continue
			}
			ba := int64(0)
			if rev := t.Pair[b]; rev != nil {
				ba = rev[a]
			}
			adj := atlas.Adjacent(a, b)
			out.Pairs = append(out.Pairs, Figure11Pair{A: a, B: b, AtoB: ab, BtoA: ba, Adjacent: adj})
			total += ab + ba
			if adj {
				direct += ab + ba
			}
			if ab > 0 && ba > 0 {
				r := float64(ab) / float64(ba)
				if r < 1 {
					r = 1 / r
				}
				ratios = append(ratios, r)
			}
		}
	}
	out.MedianRatio = Percentile(ratios, 50)
	if total > 0 {
		out.PctDirectBytes = 100 * float64(direct) / float64(total)
	}
	sort.Slice(out.Pairs, func(i, j int) bool {
		return out.Pairs[i].AtoB+out.Pairs[i].BtoA > out.Pairs[j].AtoB+out.Pairs[j].BtoA
	})
	return out
}
