// Package edge implements the edge-server tier: HTTP content delivery with
// range requests, per-version secure content IDs and piece-hash manifests,
// download authorization tokens, per-file p2p policy, and the served-bytes
// ledger the control plane uses to detect accounting attacks (§3.5).
package edge

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"

	"netsession/internal/content"
	"netsession/internal/id"
)

// Token claims: who may download what, until when, and whether peer-to-peer
// delivery is allowed. "Before a peer can receive content from other peers,
// it must authenticate to an edge server ...; this yields an encrypted token
// that can be used to search for peers" (§3.5).
type Claims struct {
	GUID      id.GUID
	Object    content.ObjectID
	ExpiresMs int64
	P2P       bool
}

// TokenMinter mints and verifies authorization tokens with an HMAC-SHA256
// key shared by the edge tier and the control plane.
type TokenMinter struct {
	key []byte
}

// NewTokenMinter creates a minter over the shared key.
func NewTokenMinter(key []byte) *TokenMinter {
	k := make([]byte, len(key))
	copy(k, key)
	return &TokenMinter{key: k}
}

const tokenBodyLen = 16 + 32 + 8 + 1

// Mint creates a token for the claims.
func (m *TokenMinter) Mint(c Claims) []byte {
	body := make([]byte, tokenBodyLen)
	copy(body[0:16], c.GUID[:])
	copy(body[16:48], c.Object[:])
	binary.BigEndian.PutUint64(body[48:56], uint64(c.ExpiresMs))
	if c.P2P {
		body[56] = 1
	}
	mac := hmac.New(sha256.New, m.key)
	mac.Write(body)
	return mac.Sum(body)
}

// Errors returned by Verify.
var (
	ErrTokenMalformed = errors.New("edge: malformed token")
	ErrTokenForged    = errors.New("edge: token MAC mismatch")
	ErrTokenExpired   = errors.New("edge: token expired")
)

// Verify checks integrity and expiry (nowMs > 0 enables the expiry check)
// and returns the claims.
func (m *TokenMinter) Verify(token []byte, nowMs int64) (Claims, error) {
	if len(token) != tokenBodyLen+sha256.Size {
		return Claims{}, ErrTokenMalformed
	}
	body, sig := token[:tokenBodyLen], token[tokenBodyLen:]
	mac := hmac.New(sha256.New, m.key)
	mac.Write(body)
	if !hmac.Equal(sig, mac.Sum(nil)) {
		return Claims{}, ErrTokenForged
	}
	var c Claims
	copy(c.GUID[:], body[0:16])
	copy(c.Object[:], body[16:48])
	c.ExpiresMs = int64(binary.BigEndian.Uint64(body[48:56]))
	c.P2P = body[56] == 1
	if nowMs > 0 && nowMs > c.ExpiresMs {
		return c, ErrTokenExpired
	}
	return c, nil
}

// EncodeToken renders a token for transport in URLs and JSON.
func EncodeToken(t []byte) string { return base64.RawURLEncoding.EncodeToString(t) }

// DecodeToken parses the EncodeToken form.
func DecodeToken(s string) ([]byte, error) {
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTokenMalformed, err)
	}
	return b, nil
}
