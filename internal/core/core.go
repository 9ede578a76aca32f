// Package core models the resource arithmetic at the heart of peer-assisted
// delivery: one download fed by an infrastructure backstop plus a set of
// peer upload offers, jointly limited by the receiver's downlink. This is
// the paper's central mechanism (§3.3) reduced to its math — the simulator
// allocates every transfer with it, and the analyses' peer-efficiency
// quantity (§5.1) is defined over its output.
package core

// Allocation is the instantaneous rate split of one download across its
// sources. Units are caller-defined (the simulator uses bytes/ms); only
// ratios and sums matter here.
type Allocation struct {
	// Edge is the rate granted to the infrastructure connection.
	Edge float64
	// PerSource are the rates granted to each serving peer, index-aligned
	// with the offers passed to Allocate.
	PerSource []float64
	// Total is the download's aggregate rate.
	Total float64
}

// Allocate splits a download's capacity across the edge backstop and the
// peer offers. Sources are scaled proportionally when their combined offer
// exceeds the receiver's downlink — the TCP-fair outcome when all sources
// stream concurrently into one access link. Negative inputs are treated as
// zero.
func Allocate(edge float64, offers []float64, downlink float64) Allocation {
	return AllocateInto(nil, edge, offers, downlink)
}

// AllocateInto is Allocate with a caller-provided backing slice for
// PerSource: dst is truncated and appended to, so a caller that reuses the
// returned slice across calls allocates nothing in steady state. The
// simulator's flow hot path recomputes allocations on every swarm-membership
// change; this variant keeps that loop allocation-free.
func AllocateInto(dst []float64, edge float64, offers []float64, downlink float64) Allocation {
	if edge < 0 {
		edge = 0
	}
	a := Allocation{Edge: edge, PerSource: append(dst[:0], offers...)}
	sum := edge
	for i, o := range a.PerSource {
		if o < 0 {
			a.PerSource[i] = 0
			o = 0
		}
		sum += o
	}
	if sum <= 0 {
		return a
	}
	f := 1.0
	if downlink > 0 && sum > downlink {
		f = downlink / sum
	}
	a.Edge *= f
	for i := range a.PerSource {
		a.PerSource[i] *= f
	}
	a.Total = sum * f
	return a
}

// PeerRate returns the aggregate rate served by peers.
func (a Allocation) PeerRate() float64 {
	s := 0.0
	for _, v := range a.PerSource {
		s += v
	}
	return s
}

// Efficiency is the fraction of the download served by peers — the paper's
// "key quantity of interest" (§5.1). Zero-rate allocations have zero
// efficiency.
func (a Allocation) Efficiency() float64 {
	if a.Total <= 0 {
		return 0
	}
	return a.PeerRate() / a.Total
}

// FairShareOffer is the rate one serving peer offers one of its downloads:
// its uplink divided across the transfers it serves. This is the per-source
// offer the directory-selected swarm presents to Allocate.
func FairShareOffer(uplink float64, concurrentUploads int) float64 {
	if uplink <= 0 || concurrentUploads <= 0 {
		return 0
	}
	return uplink / float64(concurrentUploads)
}
