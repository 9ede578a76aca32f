package geo

import "math/rand"

// buildAdjacency creates a synthetic AS-level adjacency graph. It stands in
// for the CAIDA Archipelago topology the paper uses to estimate how much
// heavy-uploader traffic travels on direct inter-AS links (§6.1: ~35%).
//
// Structure: all ASes within a country peer at the national IXP with high
// probability; the largest AS of each country acts as the national incumbent
// and connects to incumbents of other countries on the same continent; a
// handful of global tier-1 incumbents interconnect continents.
func (a *Atlas) buildAdjacency(r *rand.Rand) {
	a.adj = make(map[ASN]map[ASN]bool, len(a.ASes))
	link := func(x, y ASN) {
		if x == y {
			return
		}
		if a.adj[x] == nil {
			a.adj[x] = make(map[ASN]bool)
		}
		if a.adj[y] == nil {
			a.adj[y] = make(map[ASN]bool)
		}
		a.adj[x][y] = true
		a.adj[y][x] = true
	}

	incumbents := make(map[Continent][]ASN)
	for _, c := range a.Countries {
		if len(c.ASNs) == 0 {
			continue
		}
		inc := c.ASNs[0]
		incumbents[c.Continent] = append(incumbents[c.Continent], inc)
		for i, x := range c.ASNs {
			// Domestic peering mesh: dense but not complete.
			for _, y := range c.ASNs[i+1:] {
				if r.Float64() < 0.7 {
					link(x, y)
				}
			}
			// Everyone buys transit from the incumbent.
			link(x, inc)
		}
	}
	// Continental incumbent meshes, in stable continent order: ranging over
	// the map would draw from r in a different order every process, and the
	// atlas must be a pure function of its seed.
	for _, cont := range Continents {
		list := incumbents[cont]
		for i, x := range list {
			for _, y := range list[i+1:] {
				if r.Float64() < 0.35 {
					link(x, y)
				}
			}
		}
	}
	// Global tier-1 backbone: the first incumbent of each continent.
	var t1 []ASN
	for _, cont := range Continents {
		if l := incumbents[cont]; len(l) > 0 {
			t1 = append(t1, l[0])
		}
	}
	for i, x := range t1 {
		for _, y := range t1[i+1:] {
			link(x, y)
		}
	}
}

// Adjacent reports whether two ASes have a direct link in the synthetic
// topology.
func (a *Atlas) Adjacent(x, y ASN) bool {
	return a.adj[x][y]
}

// Neighbors returns the ASNs directly connected to n. The returned slice is
// freshly allocated.
func (a *Atlas) Neighbors(n ASN) []ASN {
	m := a.adj[n]
	out := make([]ASN, 0, len(m))
	for asn := range m {
		out = append(out, asn)
	}
	return out
}
