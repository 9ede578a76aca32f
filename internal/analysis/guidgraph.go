package analysis

import (
	"slices"

	"netsession/internal/id"
)

// GraphClass classifies one installation's secondary-GUID graph (paper
// Figure 12 / §6.2).
type GraphClass int

// Graph classes.
const (
	// GraphLinear is the expected chain of a healthy installation.
	GraphLinear GraphClass = iota
	// GraphShortBranch: one long branch plus a single one-vertex branch —
	// consistent with a failed software update.
	GraphShortBranch
	// GraphTwoLong: two long branches — consistent with a restored backup.
	GraphTwoLong
	// GraphManyBranches: several short or medium branches from one point —
	// consistent with re-imaging or cloning from a master image.
	GraphManyBranches
	// GraphIrregular: everything else.
	GraphIrregular
	numGraphClasses
)

func (c GraphClass) String() string {
	switch c {
	case GraphLinear:
		return "linear"
	case GraphShortBranch:
		return "one short branch"
	case GraphTwoLong:
		return "two long branches"
	case GraphManyBranches:
		return "several branches"
	case GraphIrregular:
		return "irregular"
	}
	return "?"
}

// Figure12 summarizes the graph classification.
type Figure12 struct {
	// Graphs is the number of graphs with at least three vertices.
	Graphs int
	// Count per class.
	Count [numGraphClasses]int
	// PctNonLinear is the headline (0.6% in the paper).
	PctNonLinear float64
	// PctOfNonLinear is each non-linear class's share of non-linear
	// graphs (the paper: 46.2% / 6.2% / 23.5% / rest).
	PctOfNonLinear [numGraphClasses]float64
}

// secGraph is one installation's secondary-GUID graph: "vertices represent
// secondary GUIDs and edges connect GUIDs that follow each other in a login
// entry" (§6.2). It keeps each distinct vertex and each distinct (parent,
// child) edge once, however many logins repeat them.
type secGraph struct {
	verts []id.Secondary
	edges [][2]int32 // parent, child: indexes into verts
}

// add folds in one login's window, newest secondary first.
func (g *secGraph) add(w *[id.HistoryLen]id.Secondary) {
	for k := 0; k+1 < len(w); k++ {
		child, parent := w[k], w[k+1]
		if child.IsZero() || parent.IsZero() {
			continue
		}
		e := [2]int32{g.vertex(parent), g.vertex(child)}
		if !slices.Contains(g.edges, e) {
			g.edges = append(g.edges, e)
		}
	}
}

// vertex returns s's index, adding it if new; consecutive logins repeat
// recent secondaries, so the search starts at the end.
func (g *secGraph) vertex(s id.Secondary) int32 {
	for i := len(g.verts) - 1; i >= 0; i-- {
		if g.verts[i] == s {
			return int32(i)
		}
	}
	g.verts = append(g.verts, s)
	return int32(len(g.verts) - 1)
}

// Figure12 classifies every installation's graph of at least three vertices.
func (m *Month) Figure12() Figure12 {
	var out Figure12
	for _, inst := range m.installs {
		if len(inst.graph.verts) < 3 {
			continue
		}
		out.Graphs++
		out.Count[inst.graph.classify()]++
	}
	nonLinear := out.Graphs - out.Count[GraphLinear]
	if out.Graphs > 0 {
		out.PctNonLinear = 100 * float64(nonLinear) / float64(out.Graphs)
	}
	if nonLinear > 0 {
		for c := GraphShortBranch; c < numGraphClasses; c++ {
			out.PctOfNonLinear[c] = 100 * float64(out.Count[c]) / float64(nonLinear)
		}
	}
	return out
}

// classify labels the graph in time linear in its size. Only a forest is a
// clean history: a vertex with two parents, or a loop back to an earlier
// secondary, is irregular before any branch is measured.
func (g *secGraph) classify() GraphClass {
	n := len(g.verts)
	up := make([]int32, n)   // parent; -1 at a root
	down := make([]int32, n) // last child seen; the only one below a fork
	kids := make([]int32, n)
	for v := range up {
		up[v], down[v] = -1, -1
	}
	for _, e := range g.edges {
		p, c := e[0], e[1]
		if up[c] >= 0 {
			return GraphIrregular // a vertex with two histories: not a tree
		}
		up[c], down[p] = p, c
		kids[p]++
	}
	// With one parent each, the graph is a forest unless walking up from
	// some vertex runs into its own path. mark: 1 on the current path, 2
	// known to reach a root; each vertex is marked at most twice.
	mark := make([]uint8, n)
	for v := range up {
		u := int32(v)
		for u >= 0 && mark[u] == 0 {
			mark[u] = 1
			u = up[u]
		}
		if u >= 0 && mark[u] == 1 {
			return GraphIrregular // a loop: not a tree
		}
		for u = int32(v); u >= 0 && mark[u] == 1; u = up[u] {
			mark[u] = 2
		}
	}

	fork := int32(-1)
	for v, k := range kids {
		if k < 2 {
			continue
		}
		if fork >= 0 {
			// Multiple independent fork points: a history no single clean
			// explanation (update failure, restore, re-imaging) produces.
			return GraphIrregular
		}
		fork = int32(v)
	}
	if fork < 0 {
		return GraphLinear
	}
	var lengths []int
	for _, e := range g.edges {
		if e[0] != fork {
			continue
		}
		// Below the one fork every vertex has at most one child.
		l := 1
		for v := down[e[1]]; v >= 0; v = down[v] {
			l++
		}
		lengths = append(lengths, l)
	}
	if len(lengths) > 2 {
		return GraphManyBranches
	}
	if min(lengths[0], lengths[1]) <= 1 {
		return GraphShortBranch
	}
	return GraphTwoLong
}
