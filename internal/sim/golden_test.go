package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"netsession/internal/accounting"
	"netsession/internal/golden"
)

// TestGoldenSmallMergeOrder pins SmallScenario's download and registration
// logs record by record, in the order the shard merge emits them.
func TestGoldenSmallMergeOrder(t *testing.T) {
	res := runSmall(t, nil)
	dls := make([]any, len(res.Log.Downloads))
	for i := range res.Log.Downloads {
		dls[i] = &res.Log.Downloads[i]
	}
	regs := make([]any, len(res.Log.Registrations))
	for i := range res.Log.Registrations {
		regs[i] = &res.Log.Registrations[i]
	}
	golden.Check(t, "merge_small.golden", []byte(
		digestLine(t, "downloads", dls)+digestLine(t, "registrations", regs)))
}

// TestGoldenSmallLogins pins SmallScenario's login set: every record the
// generator draws, sorted by (GUID, time) so the digest does not depend on
// the order the records are emitted in.
func TestGoldenSmallLogins(t *testing.T) {
	res := runSmall(t, nil)
	var logins []accounting.LoginRecord
	res.ReplayLogins(func(l *accounting.LoginRecord) { logins = append(logins, *l) })
	sort.Slice(logins, func(i, j int) bool {
		a, b := &logins[i], &logins[j]
		if c := bytes.Compare(a.GUID[:], b.GUID[:]); c != 0 {
			return c < 0
		}
		return a.TimeMs < b.TimeMs
	})
	recs := make([]any, len(logins))
	for i := range logins {
		recs[i] = &logins[i]
	}
	golden.Check(t, "logins_small.golden", []byte(digestLine(t, "logins", recs)))
}

// digestLine is "name count fnv64a" over the records' JSON encodings.
func digestLine(t *testing.T, name string, recs []any) string {
	t.Helper()
	h := fnv.New64a()
	enc := json.NewEncoder(h)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%s %d %016x\n", name, len(recs), h.Sum64())
}
