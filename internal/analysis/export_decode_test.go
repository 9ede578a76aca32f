package analysis_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"netsession/internal/analysis"
	"netsession/internal/sim"
)

// requireExportDecodesFast exports res's downloads the way netsession-sim
// does and requires every line to take DecodeDownload's fast path and decode
// to what encoding/json makes of it. It returns how many lines carry a
// stream sub-record.
func requireExportDecodesFast(t *testing.T, res *sim.Result) (streamed int) {
	t.Helper()
	lookup := analysis.ScapeLookup(res.Scape)
	for i := range res.Log.Downloads {
		rec := analysis.OfflineFromRecord(&res.Log.Downloads[i], lookup)
		line, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if !analysis.DecodesFast(line) {
			t.Fatalf("exported line falls back to encoding/json: %s", line)
		}
		var got, want analysis.OfflineDownload
		if err := analysis.DecodeDownload(line, &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded %+v, encoding/json %+v", line, got, want)
		}
		if got.Stream != nil {
			streamed++
		}
	}
	return streamed
}

// TestSimExportsDecodeFast pins the simulator's exported downloads, bulk
// and streamed, to the decoder's fast path.
func TestSimExportsDecodeFast(t *testing.T) {
	simInput(t)
	requireExportDecodesFast(t, simRes)

	cfg := sim.StreamingScenario()
	cfg.NumPeers = 1500
	cfg.TotalDownloads = 3000
	cfg.Days = 5
	cfg.Catalog.FilesPerCustomer = 100
	cfg.Atlas.TailCountries = 20
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := requireExportDecodesFast(t, res); n == 0 {
		t.Fatal("streaming scenario exported no streamed records")
	}
}
