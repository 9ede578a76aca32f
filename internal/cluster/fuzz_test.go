package cluster

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// FuzzStatusDocument feeds arbitrary bytes through the probe's status
// document decoder and folds the result into a membership, as one probe
// round does: for an identified member (optionally failing), then for an
// address-only seed, then for every member the first round learned. The
// invariants: nothing panics; every member has an ID and a status URL; self
// stays exactly the configured node and never shows up among the others;
// and the view's owner of any key is one of the view's nodes.
func FuzzStatusDocument(f *testing.F) {
	f.Add([]byte(`{"nodeId":"b","cnAddrs":["10.0.0.2:700"],"members":[{"id":"c","statusUrl":"http://c"}],"ackSeq":7}`), false)
	f.Add([]byte(`{"nodeId":"self","members":[{"id":"self","statusUrl":"http://elsewhere","cnAddrs":["x"]}]}`), false)
	f.Add([]byte(`{"nodeId":"","members":[{"id":"","statusUrl":"http://d"},{"id":"e","statusUrl":""}]}`), true)
	f.Add([]byte(`{"nodeId":"other","members":null,"ackSeq":-1}`), false)
	f.Add([]byte(`not json`), false)

	self := Node{ID: "self", StatusURL: "http://self", CNAddrs: []string{"10.0.0.1:700"}}
	f.Fuzz(func(t *testing.T, raw []byte, fail bool) {
		m := New(Config{
			Self:      self,
			Seeds:     []Node{{ID: "b", StatusURL: "http://b"}, {StatusURL: "http://pending"}},
			FailAfter: 1,
		})
		doc := decodeStatusDoc(bytes.NewReader(raw))
		first := []probeResult{
			{target: Node{ID: "b", StatusURL: "http://b"}, doc: doc},
			{target: Node{StatusURL: "http://pending"}, doc: doc},
		}
		if fail {
			first[0].err = errors.New("probe failed")
		}
		m.foldProbes(first)
		var second []probeResult
		for _, n := range m.Others() {
			second = append(second, probeResult{target: n, doc: doc})
		}
		m.foldProbes(second)

		m.mu.Lock()
		for key, ms := range m.members {
			if ms.node.ID == "" || ms.node.StatusURL == "" || ms.node.ID != key {
				t.Errorf("member %q is %+v; want a non-empty ID matching its key and a status URL", key, ms.node)
			}
		}
		if got := m.members[self.ID].node; got.StatusURL != self.StatusURL || !slices.Equal(got.CNAddrs, self.CNAddrs) {
			t.Errorf("self became %+v, want %+v", got, self)
		}
		m.mu.Unlock()
		for _, n := range m.Others() {
			if n.ID == self.ID {
				t.Errorf("self listed among the other members: %+v", n)
			}
		}
		v := m.View()
		for _, key := range []string{"NA-East", "EU-West", string(raw), doc.NodeID} {
			owner, ok := v.Owner(key)
			if !ok || !slices.ContainsFunc(v.Nodes, func(n Node) bool { return n.ID == owner.ID }) {
				t.Errorf("Owner(%q) = %+v, %v; not one of the view's nodes %+v", key, owner, ok, v.Nodes)
			}
		}
	})
}
