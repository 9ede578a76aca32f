package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"

	"netsession/internal/geo"
	"netsession/internal/golden"
	"netsession/internal/sim"
)

// The report, analytics and offline goldens were generated from the three
// pre-collapse engines (batch Compute*, OfflineAccumulator,
// StreamingSummarizer); the streaming-report and analysis_small goldens from
// the per-figure passes, one walk of the log per table or figure. Every later
// shape of the analysis must reproduce them byte for byte.

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
	in := &Input{
		Log: res.Log, Pop: res.Pop, Catalog: res.Catalog,
		Atlas: res.Atlas, Scape: res.Scape, ControlPlaneServers: geo.NumRegions,
	}
	golden.Check(t, "report_streaming.golden", []byte(Analyze(in, cfg.Days).Report()))
}

// TestGoldenAnalysisSmall pins every result type on the small month in full,
// including the series and maps the rendered report leaves out.
func TestGoldenAnalysisSmall(t *testing.T) {
	in, m := simInput(t)
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
	golden.Check(t, "analysis_small.golden.json", append(out, '\n'))
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

func TestGoldenAnalyticsDocument(t *testing.T) {
	dls := synthDownloads(20_000, 7)
	s := NewStreamingSummarizer(1)
	for i := range dls {
		s.Observe(&dls[i])
	}
	sum := s.Snapshot()
	// Encoder output is exactly what GET /v1/analytics writes.
	var doc bytes.Buffer
	if err := json.NewEncoder(&doc).Encode(sum); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "analytics_20k.golden.json", doc.Bytes())
	golden.Check(t, "analytics_20k.golden.txt", []byte(sum.Render()))
}

func TestGoldenOfflineSummary(t *testing.T) {
	golden.Check(t, "offline_20k.golden.txt",
		[]byte(SummarizeOffline(synthDownloads(20_000, 7)).Render()))
}
