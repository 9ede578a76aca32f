package analysis

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"netsession/internal/geo"
)

// renderAll is every text view of a tally, for line-by-line comparison.
func renderAll(t *Tally) string {
	return t.Summary().Render() + t.RenderFigures() + t.document().Render()
}

// TestTallyMergeIsSequentialFold is the Merge contract as a seeded property:
// for random record sets, merging any split into 1, 3 or 8 parts in any
// order equals the sequential fold — on every integer, set, sample and
// sketch-register field of the state and on every rendered line — with the
// one float sum, effSum, equal to accumulation-order rounding. The sketched
// cardinalities stay within 2% of the exact sets.
func TestTallyMergeIsSequentialFold(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dls := synthDownloads(500+rng.Intn(6000), seed)
		for _, exact := range []bool{true, false} {
			want := newTally(exact)
			for i := range dls {
				want.Add(&dls[i])
			}
			wantText := renderAll(want)
			for _, parts := range []int{1, 3, 8} {
				split := make([]*Tally, parts)
				for i := range split {
					split[i] = newTally(exact)
				}
				for i := range dls {
					split[rng.Intn(parts)].Add(&dls[i])
				}
				rng.Shuffle(parts, func(i, j int) { split[i], split[j] = split[j], split[i] })
				got := newTally(exact)
				for _, part := range split {
					got.Merge(part)
				}
				if gotText := renderAll(got); gotText != wantText {
					t.Errorf("seed %d exact=%v parts=%d: rendering differs:\n%s\nvs\n%s",
						seed, exact, parts, gotText, wantText)
				}
				if diff := math.Abs(got.effSum - want.effSum); diff > 1e-9*want.effSum {
					t.Errorf("seed %d exact=%v parts=%d: effSum %v vs %v", seed, exact, parts, got.effSum, want.effSum)
				}
				// Everything but effSum must be identical state; samples are a
				// multiset, so compare them sorted.
				got.effSum = want.effSum
				ref := *want
				for c := range ref.speed {
					ref.speed[c] = append([]float64(nil), want.speed[c]...)
					sort.Float64s(ref.speed[c])
					sort.Float64s(got.speed[c])
				}
				if !reflect.DeepEqual(got, &ref) {
					t.Errorf("seed %d exact=%v parts=%d: merged state differs from the sequential fold",
						seed, exact, parts)
				}
			}
		}

		exact, sketched := NewTally(), newTally(false)
		for i := range dls {
			exact.Add(&dls[i])
			sketched.Add(&dls[i])
		}
		sum, doc := exact.Summary(), sketched.document()
		for _, c := range []struct {
			name  string
			exact int
			est   float64
		}{{"GUIDs", sum.DistinctGUIDs, doc.ActiveGUIDs}, {"URLs", sum.DistinctURLs, doc.DistinctURLs}} {
			if math.Abs(c.est-float64(c.exact)) > 0.02*float64(c.exact) {
				t.Errorf("seed %d: sketched %s %.1f, exact %d (>2%% off)", seed, c.name, c.est, c.exact)
			}
		}
	}
}

// TestHeavyCutBreaksTiesByASN: two ASes tied at the 90% cut must not be
// chosen by map order; Figures 9c, 10 and 11 read the set.
func TestHeavyCutBreaksTiesByASN(t *testing.T) {
	for i := 0; i < 200; i++ {
		heavy, carried, total := heavyCut(map[geo.ASN]int64{1: 80, 2: 10, 3: 10})
		if !reflect.DeepEqual(heavy, []geo.ASN{1, 2}) || carried != 90 || total != 100 {
			t.Fatalf("run %d: heavy %v carrying %d of %d, want [1 2] carrying 90 of 100", i, heavy, carried, total)
		}
	}
}
