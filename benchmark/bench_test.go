package main

import (
	"encoding/json"
	"os"
	"testing"
)

// names checks that ms carries exactly the declared metrics, each once.
func names(t *testing.T, what string, ms []metric, decls []decl) {
	t.Helper()
	seen := map[string]int{}
	for _, m := range ms {
		seen[m.Name]++
	}
	for _, d := range decls {
		if seen[d.Name] != 1 {
			t.Errorf("%s metric %s emitted %d times, want once", what, d.Name, seen[d.Name])
		}
		delete(seen, d.Name)
	}
	for name := range seen {
		t.Errorf("%s metric %s emitted but not declared", what, name)
	}
}

// TestWorkloadsSmoke runs every workload for about a second (fixed-work ones
// at 1/50 scale) and asserts only the correctness gates and the metric
// names; one run is traced so the span bookkeeping and every layer probe run
// too. No timing is asserted.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rc := &runCtx{seed: 1, seconds: 1, dir: t.TempDir(), scale: 50}
			if w.name == "swarm_bulk" {
				rc.rec = newRecorder()
			}
			rep, err := runWorkload(w, rc, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("correct=%v failed=%d attempted=%d: %v", rep.Correct, rep.Failed, rep.Attempted, rep.Failures)
			}
			names(t, "end-to-end", rep.EndToEnd, endToEnd)
			for _, m := range rep.EndToEnd {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, m.Value)
				}
			}
			if rc.rec != nil {
				names(t, "per-layer", rep.PerLayer, perLayer)
				if s := extraValue(rep.PerLayer, "share.swarm"); s < extraValue(rep.PerLayer, "share.edge") {
					t.Errorf("swarm_bulk: swarm holds %.2f of the wall time, less than the edge", s)
				}
			}
		})
	}
}

// TestContractMatchesCode keeps ../BENCHMARK.json and the declarations the
// program emits from drifting apart.
func TestContractMatchesCode(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, c.Workloads[i].Name, w.name)
		}
	}
	for _, pair := range []struct {
		what       string
		file, code []decl
	}{{"end_to_end", c.EndToEnd, endToEnd}, {"per_layer", c.PerLayer, perLayer}} {
		if len(pair.file) != len(pair.code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", pair.what, len(pair.file), len(pair.code))
			continue
		}
		for i := range pair.code {
			if pair.file[i] != pair.code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", pair.what, i, pair.file[i], pair.code[i])
			}
		}
	}
}
