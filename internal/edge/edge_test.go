package edge

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"netsession/internal/content"
	"netsession/internal/id"
)

func startServer(t *testing.T, objs ...*content.Object) (*Server, *Client) {
	t.Helper()
	cat := NewCatalog()
	for _, o := range objs {
		if err := cat.PublishSynthetic(o); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(cat, NewTokenMinter([]byte("test-key")), NewLedger(), DefaultClientConfig())
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, &Client{BaseURL: "http://" + srv.Addr()}
}

func testObj(t *testing.T, size int64, p2p bool) *content.Object {
	t.Helper()
	obj, err := content.NewObject(42, "game/installer.bin", 1, size, 8192, p2p)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestTokenMintVerify(t *testing.T) {
	m := NewTokenMinter([]byte("k"))
	claims := Claims{GUID: id.NewGUID(), Object: content.NewObjectID(1, "x", 1), ExpiresMs: 10_000, P2P: true}
	tok := m.Mint(claims)

	got, err := m.Verify(tok, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if got != claims {
		t.Fatalf("claims mismatch: %+v vs %+v", got, claims)
	}
	if _, err := m.Verify(tok, 20_000); err != ErrTokenExpired {
		t.Errorf("expired token: got %v", err)
	}
	tok[3] ^= 0xff
	if _, err := m.Verify(tok, 5000); err != ErrTokenForged {
		t.Errorf("tampered token: got %v", err)
	}
	if _, err := m.Verify(tok[:10], 5000); err != ErrTokenMalformed {
		t.Errorf("short token: got %v", err)
	}
	other := NewTokenMinter([]byte("other"))
	if _, err := other.Verify(m.Mint(claims), 5000); err != ErrTokenForged {
		t.Errorf("cross-key token: got %v", err)
	}
}

func TestTokenEncodeDecode(t *testing.T) {
	m := NewTokenMinter([]byte("k"))
	tok := m.Mint(Claims{GUID: id.NewGUID(), Object: content.NewObjectID(1, "x", 1), ExpiresMs: 1})
	enc := EncodeToken(tok)
	dec, err := DecodeToken(enc)
	if err != nil {
		t.Fatal(err)
	}
	if string(dec) != string(tok) {
		t.Error("token round trip mismatch")
	}
	if _, err := DecodeToken("!!!"); err == nil {
		t.Error("invalid base64 accepted")
	}
}

func TestAuthorizeAndFetch(t *testing.T) {
	obj := testObj(t, 100_000, true)
	srv, cli := startServer(t, obj)

	g := id.NewGUID()
	auth, err := cli.Authorize(g, obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !auth.P2P {
		t.Error("p2p policy lost")
	}
	if auth.Object.Size != obj.Size || auth.Object.ID != obj.ID {
		t.Error("object metadata mismatch")
	}
	if !srv.Ledger().Authorized(g, obj.ID) {
		t.Error("authorization not recorded in ledger")
	}

	m, err := cli.FetchManifest(obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Hashes) != obj.NumPieces() {
		t.Fatalf("manifest has %d hashes, want %d", len(m.Hashes), obj.NumPieces())
	}
	// Fetch and verify every piece.
	for i := 0; i < obj.NumPieces(); i++ {
		data, err := cli.FetchPiece(m, auth.Token, i)
		if err != nil {
			t.Fatalf("piece %d: %v", i, err)
		}
		if err := m.Verify(i, data); err != nil {
			t.Fatalf("piece %d: %v", i, err)
		}
	}
	if got := srv.Ledger().Served(g, obj.ID); got != obj.Size {
		t.Errorf("ledger served %d bytes, want %d", got, obj.Size)
	}
	ok, served, err := cli.Verify(g, obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || served != obj.Size {
		t.Errorf("Verify = (%v, %d), want (true, %d)", ok, served, obj.Size)
	}
}

func TestFetchRejectsBadToken(t *testing.T) {
	obj := testObj(t, 10_000, false)
	_, cli := startServer(t, obj)
	// A token minted under a different key must be rejected.
	evil := NewTokenMinter([]byte("evil"))
	tok := evil.Mint(Claims{GUID: id.NewGUID(), Object: obj.ID, ExpiresMs: time.Now().UnixMilli() + 10_000})
	if _, err := cli.FetchRange(obj.ID, tok, 0, 100); err == nil {
		t.Error("forged token accepted")
	}
}

func TestFetchTokenObjectMismatch(t *testing.T) {
	obj1 := testObj(t, 10_000, false)
	obj2, err := content.NewObject(42, "other.bin", 1, 10_000, 8192, false)
	if err != nil {
		t.Fatal(err)
	}
	_, cli := startServer(t, obj1, obj2)
	auth, err := cli.Authorize(id.NewGUID(), obj1.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Token for obj1 must not authorize obj2.
	if _, err := cli.FetchRange(obj2.ID, auth.Token, 0, 100); err == nil {
		t.Error("token accepted for wrong object")
	}
}

func TestRangeRequests(t *testing.T) {
	obj := testObj(t, 50_000, false)
	_, cli := startServer(t, obj)
	auth, err := cli.Authorize(id.NewGUID(), obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	// A mid-object range matches the synthetic body.
	got, err := cli.FetchRange(obj.ID, auth.Token, 1234, 5678)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 5678)
	content.SyntheticBody(obj.ID, 1234, want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range byte %d mismatch", i)
		}
	}
	// Range end past EOF is clamped.
	got, err = cli.FetchRange(obj.ID, auth.Token, obj.Size-10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("tail range returned %d bytes", len(got))
	}
}

// TestDataResponseHeaders: ranged and full data responses declare their
// type and exact length before the status line goes out, so neither is sent
// chunked, and FetchRange refuses a response whose declared length is not
// the one it asked for before reading its body.
func TestDataResponseHeaders(t *testing.T) {
	obj := testObj(t, 50_000, false)
	srv, cli := startServer(t, obj)
	url := "http://" + srv.Addr() + "/v1/objects/" + obj.ID.Hex() + "/data"
	for _, c := range []struct {
		rng    string
		status int
		length int64
	}{
		{"bytes=100-8291", http.StatusPartialContent, 8192},
		{"bytes=49990-", http.StatusPartialContent, 10},
		{"", http.StatusOK, obj.Size},
	} {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.rng != "" {
			req.Header.Set("Range", c.rng)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case resp.StatusCode != c.status:
			t.Errorf("range %q: HTTP %d, want %d", c.rng, resp.StatusCode, c.status)
		case resp.ContentLength != c.length || int64(len(body)) != c.length:
			t.Errorf("range %q: ContentLength=%d body=%d, want %d", c.rng, resp.ContentLength, len(body), c.length)
		case len(resp.TransferEncoding) != 0:
			t.Errorf("range %q: sent with Transfer-Encoding %v", c.rng, resp.TransferEncoding)
		case resp.Header.Get("Content-Type") != "application/octet-stream":
			t.Errorf("range %q: Content-Type %q", c.rng, resp.Header.Get("Content-Type"))
		}
	}

	// The edge clamps a range past the end; the short answer is refused.
	auth, err := cli.Authorize(id.NewGUID(), obj.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.FetchRange(obj.ID, auth.Token, obj.Size-10, 20); err == nil || !strings.Contains(err.Error(), "declares 10 bytes") {
		t.Errorf("clamped range: err=%v, want a declared-length refusal", err)
	}
	// A server that lies about the length is refused before its body is read.
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "5")
		w.WriteHeader(http.StatusPartialContent)
		w.Write([]byte("hello"))
	}))
	defer liar.Close()
	lc := &Client{BaseURL: liar.URL}
	if _, err := lc.FetchRange(obj.ID, auth.Token, 0, 100); err == nil {
		t.Error("response declaring 5 of 100 bytes accepted")
	}
}

func TestParseRange(t *testing.T) {
	cases := []struct {
		h       string
		size    int64
		start   int64
		length  int64
		wantErr bool
	}{
		{"bytes=0-99", 1000, 0, 100, false},
		{"bytes=500-", 1000, 500, 500, false},
		{"bytes=900-1999", 1000, 900, 100, false},
		{"bytes=1000-1001", 1000, 0, 0, true},
		{"bytes=5-3", 1000, 0, 0, true},
		{"bytes=0-1,5-9", 1000, 0, 0, true},
		{"bits=0-1", 1000, 0, 0, true},
		{"bytes=-5", 1000, 0, 0, true},
	}
	for _, c := range cases {
		start, length, err := parseRange(c.h, c.size)
		if (err != nil) != c.wantErr {
			t.Errorf("parseRange(%q): err=%v wantErr=%v", c.h, err, c.wantErr)
			continue
		}
		if err == nil && (start != c.start || length != c.length) {
			t.Errorf("parseRange(%q) = (%d,%d), want (%d,%d)", c.h, start, length, c.start, c.length)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	obj := testObj(t, 1000, false)
	srv, cli := startServer(t, obj)

	if _, err := cli.FetchManifest(content.NewObjectID(9, "missing", 1)); err == nil {
		t.Error("manifest of unknown object should 404")
	}
	if _, err := cli.Authorize(id.NewGUID(), content.NewObjectID(9, "missing", 1)); err == nil {
		t.Error("authorize of unknown object should 404")
	}
	// Malformed object id in path.
	resp, err := http.Get("http://" + srv.Addr() + "/v1/objects/nothex/manifest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad oid gave HTTP %d, want 400", resp.StatusCode)
	}
	// Oversized authorize body is rejected.
	resp, err = http.Post("http://"+srv.Addr()+"/v1/authorize", "application/json",
		strings.NewReader(`{"guid":"`+strings.Repeat("a", 10_000)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("oversized body accepted")
	}
}

func TestCatalogPublishManifest(t *testing.T) {
	obj := testObj(t, 5000, true)
	m, err := content.SyntheticManifest(obj)
	if err != nil {
		t.Fatal(err)
	}
	cat := NewCatalog()
	cat.PublishManifest(m)
	if cat.Len() != 1 {
		t.Fatalf("Len=%d", cat.Len())
	}
	got, ok := cat.Object(obj.ID)
	if !ok || got.Size != obj.Size {
		t.Fatal("catalog lookup failed")
	}
}
