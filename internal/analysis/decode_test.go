package analysis

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"netsession/internal/accounting"
)

// decodeSample is a record with every field set, in the shape the writers
// emit: 32-hex GUIDs, a 64-hex object, a dotted IP.
func decodeSample() OfflineDownload {
	return OfflineDownload{
		GUID: "0123456789abcdef0123456789abcdef", IP: "10.1.2.3", Country: "US", ASN: 7018,
		Region: "NA-East", Object: "00000000000000000000000000000000000000000000000000000000000004d2",
		URLHash: "url-1234", CP: 7004, Size: 52428800, P2PEnabled: true,
		StartMs: 1700000000000, EndMs: 1700000123456, BytesInfra: 13107200, BytesPeers: 39321600,
		Outcome: "completed", Peers: 2,
		FromPeers: []OfflineContribution{
			{GUID: "fedcba9876543210fedcba9876543210", Country: "DE", ASN: 3320, Region: "EU-West", Bytes: 19660800},
			{GUID: "00112233445566778899aabbccddeeff", Country: "US", ASN: 7018, Bytes: 19660800},
		},
		Stream: &accounting.StreamStats{BitrateBps: 3000000, StartupDelayMs: 420, RebufferCount: 2,
			RebufferMs: 900, DeadlineMisses: 3, PiecesPlayed: 40, PiecesTotal: 48, EdgeRescueBytes: 65536},
	}
}

// FuzzDecodeDownload is the decoder's contract: for any bytes, DecodeDownload
// and json.Unmarshal into a zero record return the same error-or-nil and
// reflect.DeepEqual records, whatever the record held before.
func FuzzDecodeDownload(f *testing.F) {
	full := decodeSample()
	bare := full
	bare.FromPeers, bare.Stream, bare.Region = nil, nil, ""
	for _, d := range []OfflineDownload{bare, full} {
		line, err := json.Marshal(&d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
		f.Add(append(append([]byte(nil), line...), " \n"...))
		f.Add(append(append([]byte(nil), line...), 'x'))
	}
	for _, s := range []string{
		`{}`,
		`{"outcome":"aborted","stream":{"piecesTotal":9,"bitrateBps":1},"asn":5,"guid":"g","fromPeers":[{"bytes":7,"guid":"p"}]}`,
		`{"GUID":"g","Country":"US","urlhash":"u","P2PEnabled":true}`,
		`{"guid":"a","guid":"b"}`,
		`{"stream":{"bitrateBps":1},"stream":{"rebufferMs":2}}`,
		`{"fromPeers":[{"guid":"a"}],"fromPeers":[{"bytes":1},{"asn":2}]}`,
		`{"guid":null,"asn":null,"p2pEnabled":null,"stream":null}`,
		`{"fromPeers":[]}`,
		`{"fromPeers":null}`,
		`{"fromPeers":[null,{}]}`,
		`{"stream":{}}`,
		`{"guid":"caf\u00e9","country":"a\"b"}`,
		"{\"guid\":\"\xff\xfe\"}",
		"{\"guid\":\"a\tb\"}",
		`{"guid":"é"}`,
		`{"size":-0}`,
		`{"size":-5,"startMs":0}`,
		`{"size":1e3}`,
		`{"size":1.0}`,
		`{"size":01}`,
		`{"asn":4294967295}`,
		`{"asn":4294967296}`,
		`{"cp":-1}`,
		`{"peersReturned":9223372036854775807}`,
		`{"size":9223372036854775808}`,
		`{"size":-9223372036854775809}`,
		`{"size":"5"}`,
		`{"guid":5}`,
		`{"p2pEnabled":1}`,
		`{"p2pEnabled":tru}`,
		`{ "guid":"g"}`,
		`{"guid":"g",}`,
		`{"unknown":[1,{"a":2}],"guid":"g"}`,
		`[]`,
		`null`,
		``,
		`{"guid":"g"`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got := decodeSample() // stale contents must not leak into the result
		var want OfflineDownload
		gotErr := DecodeDownload(line, &got)
		wantErr := json.Unmarshal(line, &want)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: error %v, encoding/json says %v", line, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\n got %#v\nwant %#v", line, got, want)
		}
	})
}

// TestDecodeFastCoversEveryTag sets each JSON tag of OfflineDownload and of
// the types nested in it, one line per tag, and requires the fast path to
// decode the line to what encoding/json makes of it. A field added to the
// schema without a case in the decoder fails here rather than quietly
// sending every record through the fallback.
func TestDecodeFastCoversEveryTag(t *testing.T) {
	check := func(line string) {
		var got, want OfflineDownload
		if !decodeFast([]byte(line), &got) {
			t.Errorf("%s: fast path refused it", line)
			return
		}
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if !reflect.DeepEqual(got, want) || reflect.DeepEqual(got, OfflineDownload{}) {
			t.Errorf("%s: fast path gave %#v, encoding/json %#v", line, got, want)
		}
	}
	var walk func(typ reflect.Type, wrap func(string) string)
	walk = func(typ reflect.Type, wrap func(string) string) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			field := func(v string) string { return wrap(`{"` + name + `":` + v + `}`) }
			var v string
			switch f.Type.Kind() {
			case reflect.String:
				v = `"x"`
			case reflect.Bool:
				v = `true`
			case reflect.Int, reflect.Int64, reflect.Uint32:
				v = `7`
			case reflect.Slice:
				v = `[{}]`
				walk(f.Type.Elem(), func(v string) string { return field("[" + v + "]") })
			case reflect.Pointer:
				v = `{}`
				walk(f.Type.Elem(), field)
			default:
				t.Fatalf("%s.%s: no sample value for kind %s", typ.Name(), f.Name, f.Type.Kind())
			}
			check(field(v))
		}
	}
	walk(reflect.TypeOf(OfflineDownload{}), func(v string) string { return v })

	full := decodeSample()
	line, err := json.Marshal(&full)
	if err != nil {
		t.Fatal(err)
	}
	check(string(line))
}
