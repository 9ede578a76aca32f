package peer

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"netsession/internal/content"
	"netsession/internal/fsutil"
	"netsession/internal/retry"
	"netsession/internal/streaming"
)

// downloadCheckpoint is the persisted progress of one Download-Manager
// transfer. The Download Manager lets users "continue downloads that were
// aborted earlier" (§3.3); together with the durable piece store this
// extends that to crashes — a peer SIGKILLed mid-download restarts, loads
// the checkpoint, and fetches only what is missing. The checkpoint records
// which transfer to resume and how, not its progress: the durable piece
// store is the one record of which pieces are verified, so a piece
// quarantined by the store's recovery scan is refetched. The checkpoint is
// written when the download starts and when it degrades, never per piece.
type downloadCheckpoint struct {
	// Object is the full hex secure content ID.
	Object string `json:"object"`
	// P2POff records a degradation to edge-only; a resumed download must
	// not re-enter a swarm the degradation ladder already condemned.
	P2POff bool `json:"p2pOff"`
	// Streaming preserves the deadline-driven playback context: a resumed
	// stream restarts its playback clock with the same bitrate and window
	// so it keeps reporting startup/rebuffer metrics — even when the
	// checkpoint also records a degradation to edge-only.
	StreamBitrateBps    int64 `json:"streamBitrateBps,omitempty"`
	StreamStartupPieces int   `json:"streamStartupPieces,omitempty"`
	StreamWindowPieces  int   `json:"streamWindowPieces,omitempty"`
}

const checkpointDirName = "downloads"

func (c *Client) checkpointPath(oid content.ObjectID) string {
	return filepath.Join(c.ckptDir, oid.Hex()+".json")
}

// saveCheckpoint durably records how to resume a download; a no-op without a
// state directory. Pieces need no record of their own: DiskStore.Put makes
// each one durable before it counts as verified.
func (c *Client) saveCheckpoint(d *Download) {
	if c.ckptDir == "" {
		return
	}
	d.mu.Lock()
	ck := downloadCheckpoint{
		Object: d.oid.Hex(),
		P2POff: d.p2pOff,
	}
	if sc := d.opts.Streaming; sc != nil {
		ck.StreamBitrateBps = sc.BitrateBps
		ck.StreamStartupPieces = sc.StartupPieces
		ck.StreamWindowPieces = sc.WindowPieces
	}
	d.mu.Unlock()
	raw, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		return
	}
	if err := fsutil.WriteFileAtomic(c.checkpointPath(d.oid), raw, 0o644); err != nil {
		c.logf("checkpoint %v: %v", d.oid, err)
	}
}

// removeCheckpoint deletes a finished download's checkpoint.
func (c *Client) removeCheckpoint(oid content.ObjectID) {
	if c.ckptDir == "" {
		return
	}
	os.Remove(c.checkpointPath(oid))
}

// loadCheckpoints reads every parseable checkpoint in the state directory;
// torn or corrupt files are quarantined (same recovery posture as the
// installation state) and skipped.
func (c *Client) loadCheckpoints() []downloadCheckpoint {
	entries, err := os.ReadDir(c.ckptDir)
	if err != nil {
		return nil
	}
	var out []downloadCheckpoint
	for _, ent := range entries {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".json" {
			continue
		}
		path := filepath.Join(c.ckptDir, ent.Name())
		raw, err := os.ReadFile(path)
		var ck downloadCheckpoint
		if err == nil {
			err = json.Unmarshal(raw, &ck)
		}
		if err == nil {
			_, err = content.ParseObjectID(ck.Object)
		}
		if err != nil {
			os.Remove(path + ".corrupt")
			if os.Rename(path, path+".corrupt") != nil {
				os.Remove(path)
			}
			continue
		}
		out = append(out, ck)
	}
	return out
}

func (ck *downloadCheckpoint) objectID() content.ObjectID {
	oid, _ := content.ParseObjectID(ck.Object)
	return oid
}

// resumeLoop restarts every checkpointed transfer shortly after the client
// comes up, retrying with backoff while the edge tier is unreachable (a
// crashed machine often reboots into a flaky network). It runs once; later
// failures surface as normal download errors.
func (c *Client) resumeLoop() {
	pending := c.loadCheckpoints()
	if len(pending) == 0 {
		return
	}
	bo := &retry.Backoff{Base: 250 * time.Millisecond, Max: 5 * time.Second}
	for attempt := 0; attempt < 10 && len(pending) > 0; attempt++ {
		remaining := pending[:0]
		for _, ck := range pending {
			if err := c.resumeOne(ck); err != nil {
				c.logf("resume %s: %v", ck.Object[:16], err)
				remaining = append(remaining, ck)
			}
		}
		pending = remaining
		if len(pending) == 0 {
			return
		}
		select {
		case <-c.evictStop:
			return
		case <-time.After(bo.Next()):
		}
	}
}

// resumeOne restarts one checkpointed download: pieces already verified in
// the durable store are counted as recovered and skipped; only the missing
// ones are fetched. Completed leftovers (the crash happened between the
// last piece and the checkpoint removal) are finalized without any fetch.
func (c *Client) resumeOne(ck downloadCheckpoint) error {
	oid := ck.objectID()
	c.resumeMu.Lock()
	defer c.resumeMu.Unlock()
	if c.resumed[oid] || c.activeDownload(oid) != nil {
		return nil // already resumed (or the app re-requested it first)
	}
	recovered := 0
	if bf := c.store.Have(oid); bf != nil {
		recovered = bf.Count()
	}
	opts := DownloadOpts{resumeP2POff: ck.P2POff}
	if ck.StreamBitrateBps > 0 {
		opts.Streaming = &streaming.Config{
			BitrateBps:    ck.StreamBitrateBps,
			StartupPieces: ck.StreamStartupPieces,
			WindowPieces:  ck.StreamWindowPieces,
		}
	}
	_, err := c.DownloadWith(oid, opts)
	if err != nil {
		return err
	}
	c.resumed[oid] = true
	c.metrics.resumeTotal.Inc()
	c.metrics.piecesRecovered.Add(int64(recovered))
	c.logf("resumed download %v: %d pieces recovered from disk", oid, recovered)
	return nil
}

// ResumeDownloads synchronously restarts every checkpointed incomplete
// transfer and returns the live handles. The client does this automatically
// in the background at startup; tests and embedders that need the handles
// call it directly.
func (c *Client) ResumeDownloads() ([]*Download, error) {
	if c.ckptDir == "" {
		return nil, nil
	}
	var out []*Download
	var firstErr error
	for _, ck := range c.loadCheckpoints() {
		oid := ck.objectID()
		if err := c.resumeOne(ck); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if d := c.activeDownload(oid); d != nil {
			out = append(out, d)
		}
	}
	return out, firstErr
}
