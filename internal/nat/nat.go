// Package nat models NAT and firewall behaviour: the STUN-style protocol
// peers use to discover "the details of their connectivity" (§3.6), the
// compatibility matrix the database nodes consult to select "only peers that
// are likely to be able to establish a connection with each other" (§3.7),
// and the coordinated hole-punch dial used when the control plane instructs
// two peers to connect.
//
// The paper notes that "due to the vast diversity in NAT implementations
// today, NAT hole punching is a complex issue, and the necessary code takes
// up a large fraction of the NetSession codebase". This package distils that
// machinery to the behaviourally relevant core: mapping/filtering classes
// and pairwise traversal feasibility.
package nat

import (
	"math/rand"

	"netsession/internal/protocol"
)

// CanConnect reports whether two peers behind the given NAT classes can
// establish a direct connection when both simultaneously initiate (the
// control plane "instructs both the querying peer and the chosen peers to
// initiate connections to each other", §3.7).
//
// The matrix follows the classic STUN traversal results: endpoints with a
// public address or an endpoint-independent (full-cone) mapping are always
// reachable; address- and port-restricted cones punch with everything except
// that port-restricted cannot punch with symmetric (the symmetric side's
// per-destination port is unknown); two symmetric NATs cannot punch; a
// blocked endpoint can only talk to a publicly reachable one.
func CanConnect(a, b protocol.NATClass) bool {
	if a > b {
		a, b = b, a // matrix is symmetric; normalize
	}
	switch {
	case a == protocol.NATNone:
		return true // a public endpoint accepts inbound from anyone, even blocked peers dialing out
	case b == protocol.NATBlocked:
		return false
	case a == protocol.NATFullCone || b == protocol.NATFullCone:
		return true
	case a == protocol.NATRestricted:
		return true
	case a == protocol.NATPortRestricted:
		return b == protocol.NATPortRestricted
	default: // symmetric–symmetric
		return false
	}
}

// HolderMustInitiate reports whether a holder behind NAT class c, chosen to
// serve a querying peer, must itself open the connection for the pair to
// meet. That is the case exactly when its NAT filters unsolicited inbound
// (restricted, port-restricted and symmetric cones, and blocked endpoints):
// the querier's dial gets through only once the holder's own outbound
// packets have opened the mapping. A public or full-cone holder accepts the
// querier's dial as it is. The querier's class plays no part: the querier
// always dials, having asked.
func HolderMustInitiate(c protocol.NATClass) bool {
	return c != protocol.NATNone && c != protocol.NATFullCone
}

// Distribution is a sampling distribution over NAT classes for synthetic
// peer populations.
type Distribution struct {
	classes []protocol.NATClass
	cum     []float64
}

// NewDistribution builds a distribution from class weights. Weights need not
// sum to one.
func NewDistribution(weights map[protocol.NATClass]float64) Distribution {
	var d Distribution
	total := 0.0
	for _, c := range []protocol.NATClass{
		protocol.NATNone, protocol.NATFullCone, protocol.NATRestricted,
		protocol.NATPortRestricted, protocol.NATSymmetric, protocol.NATBlocked,
	} {
		w := weights[c]
		if w <= 0 {
			continue
		}
		total += w
		d.classes = append(d.classes, c)
		d.cum = append(d.cum, total)
	}
	for i := range d.cum {
		d.cum[i] /= total
	}
	return d
}

// DefaultDistribution approximates the consumer broadband NAT mix: mostly
// cone NATs, a minority of symmetric NATs and a small fraction of fully
// blocked or fully public endpoints.
func DefaultDistribution() Distribution {
	return NewDistribution(map[protocol.NATClass]float64{
		protocol.NATNone:           0.10,
		protocol.NATFullCone:       0.25,
		protocol.NATRestricted:     0.20,
		protocol.NATPortRestricted: 0.35,
		protocol.NATSymmetric:      0.08,
		protocol.NATBlocked:        0.02,
	})
}

// Sample draws a NAT class.
func (d Distribution) Sample(r *rand.Rand) protocol.NATClass {
	if len(d.classes) == 0 {
		return protocol.NATNone
	}
	x := r.Float64()
	for i, c := range d.cum {
		if x <= c {
			return d.classes[i]
		}
	}
	return d.classes[len(d.classes)-1]
}
