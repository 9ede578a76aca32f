package edge

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"netsession/internal/content"
	"netsession/internal/id"
)

// Client is the peer-side HTTP client for one edge server.
type Client struct {
	// BaseURL is e.g. "http://127.0.0.1:8443".
	BaseURL string
	// HTTP is the underlying client; a zero Client uses a default with
	// sane timeouts.
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 60 * time.Second}
}

// Authorization is the result of Authorize: the search token, the per-file
// policy, the authoritative object metadata and the client configuration.
type Authorization struct {
	Token  []byte
	P2P    bool
	Object *content.Object
	Config ClientConfig
}

// Authorize obtains a download authorization for (guid, object).
func (c *Client) Authorize(g id.GUID, oid content.ObjectID) (*Authorization, error) {
	body, _ := json.Marshal(authorizeRequest{GUID: g.String(), Object: oid.Hex()})
	resp, err := c.http().Post(c.BaseURL+"/v1/authorize", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("edge: authorize: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError("authorize", resp)
	}
	var ar authorizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		return nil, fmt.Errorf("edge: authorize decode: %w", err)
	}
	tok, err := DecodeToken(ar.Token)
	if err != nil {
		return nil, err
	}
	obj, err := fromObjectJSON(ar.Object)
	if err != nil {
		return nil, err
	}
	return &Authorization{Token: tok, P2P: ar.P2P, Object: obj, Config: ar.Config}, nil
}

// FetchManifest downloads and validates the piece-hash manifest.
func (c *Client) FetchManifest(oid content.ObjectID) (*content.Manifest, error) {
	resp, err := c.http().Get(c.BaseURL + "/v1/objects/" + oid.Hex() + "/manifest")
	if err != nil {
		return nil, fmt.Errorf("edge: manifest: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError("manifest", resp)
	}
	var mj manifestJSON
	if err := json.NewDecoder(resp.Body).Decode(&mj); err != nil {
		return nil, fmt.Errorf("edge: manifest decode: %w", err)
	}
	obj, err := fromObjectJSON(mj.Object)
	if err != nil {
		return nil, err
	}
	m := &content.Manifest{Object: *obj}
	if len(mj.HashesHx) != obj.NumPieces() {
		return nil, fmt.Errorf("edge: manifest has %d hashes for %d pieces", len(mj.HashesHx), obj.NumPieces())
	}
	for _, hx := range mj.HashesHx {
		b, err := hex.DecodeString(hx)
		if err != nil || len(b) != 32 {
			return nil, fmt.Errorf("edge: bad piece hash %q", hx)
		}
		var h content.PieceHash
		copy(h[:], b)
		m.Hashes = append(m.Hashes, h)
	}
	return m, nil
}

// FetchRange downloads [start, start+length) of the object body, passing
// the token so the edge ledger attributes the bytes. The body is read into
// one buffer of exactly length bytes, which the caller owns; a response
// that does not declare that length is refused before its body is read.
func (c *Client) FetchRange(oid content.ObjectID, token []byte, start, length int64) ([]byte, error) {
	url := fmt.Sprintf("%s/v1/objects/%s/data?token=%s", c.BaseURL, oid.Hex(), EncodeToken(token))
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", start, start+length-1))
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, fmt.Errorf("edge: fetch range: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent && resp.StatusCode != http.StatusOK {
		return nil, httpError("fetch range", resp)
	}
	if resp.ContentLength != length {
		return nil, fmt.Errorf("edge: fetch range: response declares %d bytes, want %d", resp.ContentLength, length)
	}
	data := make([]byte, length)
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		return nil, fmt.Errorf("edge: fetch range body: %w", err)
	}
	return data, nil
}

// FetchPiece downloads one piece. It does not verify it: the caller hands
// the buffer to content.Store.Put, the one place a piece is verified.
func (c *Client) FetchPiece(m *content.Manifest, token []byte, index int) ([]byte, error) {
	length := int64(m.Object.PieceLength(index))
	if length == 0 {
		return nil, fmt.Errorf("edge: piece %d out of range", index)
	}
	return c.FetchRange(m.Object.ID, token, m.Object.PieceOffset(index), length)
}

// Verify asks the edge tier whether it authorized (guid, object) and how
// many bytes it served — the control plane's accounting cross-check.
func (c *Client) Verify(g id.GUID, oid content.ObjectID) (authorized bool, servedBytes int64, err error) {
	url := fmt.Sprintf("%s/v1/verify?guid=%s&object=%s", c.BaseURL, g.String(), oid.Hex())
	resp, err := c.http().Get(url)
	if err != nil {
		return false, 0, fmt.Errorf("edge: verify: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, 0, httpError("verify", resp)
	}
	var vr verifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&vr); err != nil {
		return false, 0, fmt.Errorf("edge: verify decode: %w", err)
	}
	return vr.Authorized, vr.ServedBytes, nil
}

func httpError(op string, resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	return fmt.Errorf("edge: %s: HTTP %d: %s", op, resp.StatusCode, bytes.TrimSpace(body))
}
