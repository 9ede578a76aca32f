package core

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAllocateUncapped(t *testing.T) {
	a := Allocate(3, []float64{1, 2}, 100)
	if !almost(a.Edge, 3) || !almost(a.PerSource[0], 1) || !almost(a.PerSource[1], 2) {
		t.Fatalf("uncapped allocation distorted: %+v", a)
	}
	if !almost(a.Total, 6) {
		t.Fatalf("Total=%v", a.Total)
	}
	if !almost(a.Efficiency(), 0.5) {
		t.Fatalf("Efficiency=%v", a.Efficiency())
	}
}

func TestAllocateCapped(t *testing.T) {
	a := Allocate(6, []float64{2, 4}, 6) // offers 12, cap 6: halve everything
	if !almost(a.Edge, 3) || !almost(a.PerSource[0], 1) || !almost(a.PerSource[1], 2) {
		t.Fatalf("capped allocation wrong: %+v", a)
	}
	if !almost(a.Total, 6) {
		t.Fatalf("Total=%v", a.Total)
	}
	// Efficiency is invariant under capping: proportional scaling.
	if !almost(a.Efficiency(), 0.5) {
		t.Fatalf("Efficiency=%v", a.Efficiency())
	}
}

func TestAllocateDegenerate(t *testing.T) {
	a := Allocate(0, nil, 10)
	if a.Total != 0 || a.Efficiency() != 0 {
		t.Fatalf("zero allocation: %+v", a)
	}
	a = Allocate(-5, []float64{-1}, 10)
	if a.Total != 0 {
		t.Fatalf("negative inputs not clamped: %+v", a)
	}
	// Zero downlink means uncapped (capacity unknown).
	a = Allocate(4, []float64{4}, 0)
	if !almost(a.Total, 8) {
		t.Fatalf("zero downlink should not cap: %+v", a)
	}
}

func TestAllocateProperties(t *testing.T) {
	f := func(edge float64, offers []float64, downlink float64) bool {
		edge = sane(edge)
		downlink = sane(downlink)
		for i := range offers {
			offers[i] = sane(offers[i])
		}
		a := Allocate(edge, offers, downlink)
		// Never exceeds downlink (when positive).
		if downlink > 0 && a.Total > downlink*(1+1e-9)+1e-9 {
			return false
		}
		// Components sum to Total (relative tolerance: sums of many
		// float64 terms accumulate rounding).
		lhs, rhs := a.Edge+a.PeerRate(), a.Total
		scale := math.Max(1, math.Max(math.Abs(lhs), math.Abs(rhs)))
		if math.Abs(lhs-rhs) > 1e-9*scale {
			return false
		}
		// Efficiency in [0,1].
		e := a.Efficiency()
		return e >= 0 && e <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sane maps arbitrary float64s into a numerically tame non-negative range.
func sane(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	if v < 0 {
		v = -v
	}
	return math.Mod(v, 1e9)
}

func TestFairShareOffer(t *testing.T) {
	if got := FairShareOffer(8, 4); !almost(got, 2) {
		t.Errorf("FairShareOffer=%v", got)
	}
	if FairShareOffer(8, 0) != 0 || FairShareOffer(-1, 3) != 0 {
		t.Error("degenerate offers must be zero")
	}
}
