package analysis

import (
	"math/rand"
	"testing"

	"netsession/internal/accounting"
	"netsession/internal/id"
)

// chainLogins builds login records for one GUID whose secondary-GUID window
// evolves through the given sequence of window snapshots.
func loginsFromWindows(g id.GUID, windows [][id.HistoryLen]id.Secondary) []accounting.LoginRecord {
	out := make([]accounting.LoginRecord, 0, len(windows))
	for i, w := range windows {
		out = append(out, accounting.LoginRecord{TimeMs: int64(i), GUID: g, Secondaries: w})
	}
	return out
}

// mkSecs returns n distinct secondaries.
func mkSecs(r *rand.Rand, n int) []id.Secondary {
	out := make([]id.Secondary, n)
	for i := range out {
		out[i] = id.RandSecondary(r)
	}
	return out
}

// windowsFor simulates a history walking a sequence of "current" secondary
// indices over a chain array; -1 entries in rollbackTo reset to a saved
// point. Simpler: build windows directly from explicit chains.
func windowOf(chain []id.Secondary, head int) [id.HistoryLen]id.Secondary {
	var w [id.HistoryLen]id.Secondary
	for i := 0; i < id.HistoryLen; i++ {
		ix := head - i
		if ix >= 0 && ix < len(chain) {
			w[i] = chain[ix]
		}
	}
	return w
}

func classify(t *testing.T, logins []accounting.LoginRecord) GraphClass {
	t.Helper()
	f := Analyze(&Input{Records: &accounting.Log{Logins: logins}}, 0).Figure12()
	if f.Graphs != 1 {
		t.Fatalf("expected 1 graph, got %d", f.Graphs)
	}
	for c := GraphLinear; c < numGraphClasses; c++ {
		if f.Count[c] == 1 {
			return c
		}
	}
	t.Fatal("no class counted")
	return GraphLinear
}

func TestClassifyLinearChain(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := id.RandGUID(r)
	chain := mkSecs(r, 10)
	var windows [][id.HistoryLen]id.Secondary
	for head := 4; head < 10; head++ {
		windows = append(windows, windowOf(chain, head))
	}
	if got := classify(t, loginsFromWindows(g, windows)); got != GraphLinear {
		t.Errorf("linear chain classified as %v", got)
	}
}

func TestClassifyShortBranch(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := id.RandGUID(r)
	main := mkSecs(r, 12)
	// A failed update: one secondary hangs off main[5] and is abandoned.
	stub := mkSecs(r, 1)[0]
	branchWindow := [id.HistoryLen]id.Secondary{stub, main[5], main[4], main[3], main[2]}
	var windows [][id.HistoryLen]id.Secondary
	for head := 4; head <= 5; head++ {
		windows = append(windows, windowOf(main, head))
	}
	windows = append(windows, branchWindow)
	for head := 6; head < 12; head++ {
		windows = append(windows, windowOf(main, head))
	}
	if got := classify(t, loginsFromWindows(g, windows)); got != GraphShortBranch {
		t.Errorf("short branch classified as %v", got)
	}
}

func TestClassifyTwoLongBranches(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := id.RandGUID(r)
	// Trunk 0..5; branch A continues 6..10; restore to 5, branch B 6'..10'.
	trunk := mkSecs(r, 6)
	a := append(append([]id.Secondary{}, trunk...), mkSecs(r, 5)...)
	b := append(append([]id.Secondary{}, trunk...), mkSecs(r, 5)...)
	var windows [][id.HistoryLen]id.Secondary
	for head := 4; head < len(a); head++ {
		windows = append(windows, windowOf(a, head))
	}
	for head := 6; head < len(b); head++ {
		windows = append(windows, windowOf(b, head))
	}
	if got := classify(t, loginsFromWindows(g, windows)); got != GraphTwoLong {
		t.Errorf("two long branches classified as %v", got)
	}
}

func TestClassifyManyBranches(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g := id.RandGUID(r)
	// Re-imaged nightly from trunk[4]: several short branches.
	trunk := mkSecs(r, 5)
	var windows [][id.HistoryLen]id.Secondary
	windows = append(windows, windowOf(trunk, 4))
	for day := 0; day < 4; day++ {
		branch := append(append([]id.Secondary{}, trunk...), mkSecs(r, 2)...)
		for head := 5; head < len(branch); head++ {
			windows = append(windows, windowOf(branch, head))
		}
	}
	if got := classify(t, loginsFromWindows(g, windows)); got != GraphManyBranches {
		t.Errorf("many branches classified as %v", got)
	}
}

func TestClassifyIrregular(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := id.RandGUID(r)
	// Two independent fork points: trunk forks at 3 and the first branch
	// forks again at its own position 6.
	trunk := mkSecs(r, 4)
	b1 := append(append([]id.Secondary{}, trunk...), mkSecs(r, 4)...) // forks at trunk[3]
	b2 := append(append([]id.Secondary{}, trunk...), mkSecs(r, 3)...) // second fork at trunk[3]... need distinct points
	// Make the second fork at b1[6] instead:
	b3 := append(append([]id.Secondary{}, b1[:7]...), mkSecs(r, 3)...)
	var windows [][id.HistoryLen]id.Secondary
	for head := 4; head < len(b1); head++ {
		windows = append(windows, windowOf(b1, head))
	}
	for head := 4; head < len(b2); head++ {
		windows = append(windows, windowOf(b2, head))
	}
	for head := 7; head < len(b3); head++ {
		windows = append(windows, windowOf(b3, head))
	}
	if got := classify(t, loginsFromWindows(g, windows)); got != GraphIrregular {
		t.Errorf("multi-fork graph classified as %v", got)
	}
}

func TestTinyGraphsSkipped(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	g := id.RandGUID(r)
	chain := mkSecs(r, 2)
	w := [id.HistoryLen]id.Secondary{chain[1], chain[0]}
	in := &Input{Records: &accounting.Log{Logins: loginsFromWindows(g, [][id.HistoryLen]id.Secondary{w})}}
	if f := Analyze(in, 0).Figure12(); f.Graphs != 0 {
		t.Errorf("graph with 2 vertices counted (got %d graphs)", f.Graphs)
	}
}

// TestClassifyLoopBackToBranchPoint: a history that returns to its own fork
// point (bp→c→d→bp next to bp→e→f) is not a tree, whatever its branches'
// lengths.
func TestClassifyLoopBackToBranchPoint(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := id.RandGUID(r)
	s := mkSecs(r, 5)
	bp, c, d, e, f := s[0], s[1], s[2], s[3], s[4]
	windows := [][id.HistoryLen]id.Secondary{{d, c, bp}, {bp, d}, {f, e, bp}}
	if got := classify(t, loginsFromWindows(g, windows)); got != GraphIrregular {
		t.Errorf("loop back to the branch point classified as %v", got)
	}
}
