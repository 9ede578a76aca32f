package analysis_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"netsession/internal/accounting"
	"netsession/internal/analysis"
	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/golden"
	"netsession/internal/id"
	"netsession/internal/protocol"
	"netsession/internal/sim"
	"netsession/internal/trace"
)

// The report golden was generated from the batch Compute* engine; the
// streaming-report and analysis_small goldens from the per-figure passes,
// one walk of the log per table or figure. Every later shape of the
// analysis must reproduce them byte for byte.

func TestGoldenReport(t *testing.T) {
	_, m := simInput(t)
	golden.Check(t, "report_small.golden", []byte(m.Report()))
}

// TestGoldenStreamingReport pins the report on a streaming month, the one
// input that renders the streaming section.
func TestGoldenStreamingReport(t *testing.T) {
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
	golden.Check(t, "report_streaming.golden", []byte(analysis.Analyze(res.Input(), cfg.Days).Report()))
}

// TestGoldenAnalysisSmall pins every result type on the small month in full,
// including the series and maps the rendered report leaves out.
func TestGoldenAnalysisSmall(t *testing.T) {
	in, m := simInput(t)
	golden.Check(t, "analysis_small.golden.json", monthJSON(t, in, m))
}

// TestFoldOrderInvariance folds the small month's logins in three orders:
// as the generator streams them (one installation after another), globally
// time-sorted, and with installations randomly interleaved, each one's own
// logins still in time order. Every result type must come out identical:
// the fold needs per-installation order and nothing more.
func TestFoldOrderInvariance(t *testing.T) {
	in, _ := simInput(t)
	var stream []accounting.LoginRecord
	simRes.ReplayLogins(func(l *accounting.LoginRecord) { stream = append(stream, *l) })
	fold := func(logins []accounting.LoginRecord) []byte {
		m := analysis.NewMonth(in, simDays)
		for i := range logins {
			m.AddLogin(&logins[i])
		}
		simRes.ReplayDownloads(m.AddDownload, m.AddRegistration)
		m.Finish()
		return monthJSON(t, in, m)
	}

	sorted := append([]accounting.LoginRecord(nil), stream...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TimeMs < sorted[j].TimeMs })

	var queues [][]accounting.LoginRecord
	at := make(map[id.GUID]int)
	for _, l := range stream {
		q, ok := at[l.GUID]
		if !ok {
			q = len(queues)
			at[l.GUID] = q
			queues = append(queues, nil)
		}
		queues[q] = append(queues[q], l)
	}
	r := rand.New(rand.NewSource(1))
	var mixed []accounting.LoginRecord
	for len(queues) > 0 {
		q := r.Intn(len(queues))
		mixed = append(mixed, queues[q][0])
		if queues[q] = queues[q][1:]; len(queues[q]) == 0 {
			queues[q] = queues[len(queues)-1]
			queues = queues[:len(queues)-1]
		}
	}

	want := fold(stream)
	for name, order := range map[string][]accounting.LoginRecord{"time-sorted": sorted, "interleaved": mixed} {
		if len(order) != len(stream) || reflect.DeepEqual(order, stream) {
			t.Fatalf("%s order is not a different order of the %d streamed logins", name, len(stream))
		}
		if !bytes.Equal(fold(order), want) {
			t.Errorf("folding the logins %s changes the month", name)
		}
	}
}

// TestConcurrentFoldMatchesSequential: Analyze folds the login stream and
// the download stream on two goroutines and merges the two folds once. Every
// result type must equal one sequential fold of the same records, on the
// small month and on a hand-built log with GUIDs seen only in logins, only in
// downloads and in both, and with peer IPs that also log in, whose peer flag
// only the download side sets.
func TestConcurrentFoldMatchesSequential(t *testing.T) {
	sequential := func(in *analysis.Input, days int) *analysis.Month {
		m := analysis.NewMonth(in, days)
		in.Records.ReplayLogins(m.AddLogin)
		in.Records.ReplayDownloads(m.AddDownload, m.AddRegistration)
		m.Finish()
		return m
	}
	simIn, _ := simInput(t)
	handIn := handBuiltMonth(t)
	for _, c := range []struct {
		name string
		in   *analysis.Input
		days int
	}{{"small sim month", simIn, simDays}, {"hand-built log", handIn, 1}} {
		got := monthJSON(t, c.in, analysis.Analyze(c.in, c.days))
		if want := monthJSON(t, c.in, sequential(c.in, c.days)); !bytes.Equal(got, want) {
			t.Errorf("%s: the concurrent fold differs from the sequential one", c.name)
		}
	}
}

// handBuiltMonth is a one-day log over a two-country atlas. GUID 1 only logs
// in; GUID 2 only downloads; GUIDs 3 and 4 do both. GUID 3 downloads from
// GUIDs 1 and 4 at the IP it logs in from, so that IP and both uploaders'
// login IPs are peer IPs; GUID 2's download has no peers, and one download
// names an IP EdgeScape does not know.
func handBuiltMonth(t *testing.T) *analysis.Input {
	t.Helper()
	atlas := geo.GenerateAtlas(geo.AtlasConfig{CitiesPerCountry: 2, ASesPerCountry: 2, Seed: 1})
	scape := geo.NewEdgeScape(atlas)
	var ips []netip.Addr
	for _, c := range atlas.Countries[:2] {
		for _, as := range c.ASNs[:2] {
			ip, err := scape.AllocateIP(as, c.Locations[0])
			if err != nil {
				t.Fatal(err)
			}
			ips = append(ips, ip)
		}
	}
	g := func(n byte) id.GUID { return id.GUID{n} }
	obj := content.ObjectID{7}
	login := func(ms int64, guid id.GUID, ip netip.Addr, up bool) accounting.LoginRecord {
		return accounting.LoginRecord{TimeMs: ms, GUID: guid, IP: ip, UploadsEnabled: up}
	}
	log := &accounting.Log{
		Logins: []accounting.LoginRecord{
			login(1_000, g(1), ips[0], true), login(5_000, g(1), ips[1], true),
			login(2_000, g(3), ips[2], false), login(9_000, g(3), ips[2], true),
			login(3_000, g(4), ips[3], true),
		},
		Downloads: []accounting.DownloadRecord{
			{GUID: g(2), IP: ips[1], Object: obj, URLHash: "u1", CP: 101, Size: 4 << 20,
				StartMs: 10_000, EndMs: 20_000, BytesInfra: 4 << 20, PeersReturned: 0,
				Outcome: protocol.OutcomeCompleted},
			{GUID: g(3), IP: ips[2], Object: obj, URLHash: "u1", CP: 101, Size: 4 << 20, P2PEnabled: true,
				StartMs: 30_000, EndMs: 34_000, BytesInfra: 1 << 20, BytesPeers: 3 << 20, PeersReturned: 2,
				Outcome: protocol.OutcomeCompleted, FromPeers: []accounting.PeerContribution{
					{GUID: g(1), IP: ips[0], Bytes: 2 << 20}, {GUID: g(4), IP: ips[3], Bytes: 1 << 20},
				}},
			{GUID: g(4), IP: netip.MustParseAddr("192.0.2.1"), Object: content.ObjectID{8}, URLHash: "u2",
				CP: 102, Size: 1 << 20, StartMs: 40_000, EndMs: 41_000, BytesInfra: 1 << 19,
				Outcome: protocol.OutcomeAborted},
		},
		Registrations: []accounting.RegistrationRecord{
			{TimeMs: 35_000, GUID: g(3), Object: obj},
		},
	}
	pop := &trace.Population{}
	for n := byte(1); n <= 4; n++ {
		pop.Peers = append(pop.Peers, &trace.PeerSpec{GUID: g(n), InstallCP: 101})
	}
	return &analysis.Input{Records: log, Pop: pop, Catalog: &trace.Catalog{},
		Atlas: atlas, Scape: scape, ControlPlaneServers: 1}
}

// BenchmarkAnalyzeMonth times the small month's report from its finished
// simulation: both streams folded and merged, then every view rendered.
func BenchmarkAnalyzeMonth(b *testing.B) {
	in, _ := simInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if analysis.Analyze(in, simDays).Report() == "" {
			b.Fatal("empty report")
		}
	}
}

// monthJSON renders every result type of m as indented JSON.
func monthJSON(t *testing.T, in *analysis.Input, m *analysis.Month) []byte {
	t.Helper()
	ast := m.ASTraffic()
	f3b := m.Tally.Figure3b()
	doc := map[string]any{
		"Table1":          m.Table1(),
		"Table2":          m.Table2(),
		"Table3":          m.Table3(),
		"Table4":          m.Table4(),
		"Figure2":         m.Figure2(),
		"Figure3a":        m.Tally.Figure3a(),
		"Figure3b":        f3b,
		"Figure3bSlope":   f3b.PowerLawSlope(),
		"Figure3c":        m.Figure3c(),
		"Figure4":         m.Figure4(),
		"Figure5":         m.Figure5(),
		"Figure6":         m.Figure6(),
		"Figure7":         m.Tally.Figure7(),
		"Figure8":         m.Figure8(104),
		"ASTraffic":       ast,
		"IntraASFraction": ast.IntraASFraction(),
		"Figure9a":        ast.ComputeFigure9a(),
		"Figure9b":        ast.ComputeFigure9b(),
		"Figure9c":        ast.ComputeFigure9c(),
		"Figure10":        ast.ComputeFigure10(),
		"Figure11":        ast.ComputeFigure11(in.Atlas),
		"Figure12":        m.Figure12(),
		"Headlines":       m.Headlines(),
		"Mobility":        m.Mobility(),
		"StreamingFigure": m.Tally.StreamingFigure(),
	}
	out, err := json.MarshalIndent(jsonTree(reflect.ValueOf(doc)), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// jsonTree mirrors v as a JSON tree: structs and maps become objects (keys
// sorted by the encoder), and floats are printed to 12 significant digits,
// so a value pinned here does not depend on the order a float sum was taken
// in. NaN, which JSON cannot carry as a number, is a string.
func jsonTree(v reflect.Value) any {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		f := v.Float()
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Sprint(f)
		}
		return json.Number(strconv.FormatFloat(f, 'g', 12, 64))
	case reflect.Struct:
		m := make(map[string]any)
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				m[f.Name] = jsonTree(v.Field(i))
			}
		}
		return m
	case reflect.Map:
		m := make(map[string]any)
		for it := v.MapRange(); it.Next(); {
			m[fmt.Sprint(it.Key().Interface())] = jsonTree(it.Value())
		}
		return m
	case reflect.Slice, reflect.Array:
		out := make([]any, v.Len())
		for i := range out {
			out[i] = jsonTree(v.Index(i))
		}
		return out
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return nil
		}
		return jsonTree(v.Elem())
	}
	return v.Interface()
}
