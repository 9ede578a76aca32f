package logpipe

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"netsession/internal/fsutil"
)

const (
	// ackWindow is how many recent batch keys an ack store remembers. The
	// window also bounds what anti-entropy can transfer: a peer more than
	// ackWindow acks behind receives only the retained tail, which is fine —
	// exactly-once only needs the recent keys an uploader could still be
	// retrying.
	ackWindow = 4096
	// ackCheckpointEvery is how many marks go to the journal before the
	// checkpoint is rewritten and the journal truncated.
	ackCheckpointEvery = 256
)

// ackRec is one retained acknowledgement: the key and its position in the
// store's total order.
type ackRec struct {
	seq uint64
	key string
}

// AckStore is a node's durable batch-acknowledgement table: a bounded
// window of recently acked batch IDs with a monotonic sequence number,
// persisted as an atomic checkpoint plus a synced append journal so a
// process crash between a batch ack and the next checkpoint loses nothing.
// The sequence number is the anti-entropy cursor — peers that saw our seq
// advance pull the keys they are missing via Since. All methods are safe
// for concurrent use.
type AckStore struct {
	dir        string
	ckptEvery  int
	mu         sync.Mutex
	seen       map[string]uint64 // key -> seq
	order      []ackRec          // circular, oldest at next
	next       int
	filled     bool
	seq        uint64 // total acks ever marked; 0 = none
	journal    *os.File
	sinceCkpt  int
	closed     bool
	journalErr error
}

const (
	ackCheckpointFile = "acks.json"
	ackJournalFile    = "acks.log"
)

// ackCheckpoint is the JSON shape of the on-disk checkpoint: the sequence
// number of the last key in Keys, which are ordered oldest-first.
type ackCheckpoint struct {
	Seq  uint64   `json:"seq"`
	Keys []string `json:"keys"`
}

// OpenAckStore opens (creating if needed) the ack store in dir, replaying
// the checkpoint ("acks.json") and any journal tail ("acks.log") written
// after it. An empty dir keeps the store memory-only — same semantics,
// nothing survives a restart.
func OpenAckStore(dir string) (*AckStore, error) {
	return openAckStore(dir, ackWindow, ackCheckpointEvery)
}

// openAckStore is OpenAckStore with the window and checkpoint interval
// given, which tests shrink.
func openAckStore(dir string, window, ckptEvery int) (*AckStore, error) {
	a := &AckStore{
		dir:       dir,
		ckptEvery: ckptEvery,
		seen:      make(map[string]uint64, window),
		order:     make([]ackRec, window),
	}
	if dir == "" {
		return a, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ack store dir: %w", err)
	}
	if err := a.load(); err != nil {
		return nil, err
	}
	// Fold the journal tail into a fresh checkpoint and start a new journal,
	// so recovery cost stays bounded no matter how we last went down.
	if err := a.checkpointLocked(); err != nil {
		return nil, err
	}
	return a, nil
}

// load replays the checkpoint then the journal. Either may be missing
// (first boot) or the journal may end in a torn line (crash mid-append);
// both are normal.
func (a *AckStore) load() error {
	raw, err := os.ReadFile(filepath.Join(a.dir, ackCheckpointFile))
	if err == nil {
		var ckpt ackCheckpoint
		// A seq beyond MaxInt64 is no count of marks a store could reach; the
		// checkpoint is corrupt and ignored, like one that fails to parse.
		if jerr := json.Unmarshal(raw, &ckpt); jerr == nil && ckpt.Seq <= math.MaxInt64 {
			// A seq smaller than the key list would underflow the base and
			// leave keys Seen but outside Since/Window (a drain would flush
			// none of them); clamp it so every replayed key is numbered.
			a.seq = max(ckpt.Seq, uint64(len(ckpt.Keys)))
			base := a.seq - uint64(len(ckpt.Keys))
			for i, key := range ckpt.Keys {
				if _, dup := a.seen[key]; !dup && validAckKey(key) {
					a.insert(key, base+uint64(i)+1)
				}
			}
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("ack checkpoint: %w", err)
	}
	jf, err := os.Open(filepath.Join(a.dir, ackJournalFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("ack journal: %w", err)
	}
	defer jf.Close()
	sc := bufio.NewScanner(jf)
	sc.Buffer(make([]byte, 4096), 1<<20)
	for sc.Scan() {
		key := sc.Text()
		if _, dup := a.seen[key]; dup || !validAckKey(key) {
			continue
		}
		a.seq++
		a.insert(key, a.seq)
	}
	// A scanner error here is a torn final line; everything before it
	// replayed fine, and the rewrite in OpenAckStore discards the damage.
	return nil
}

// validAckKey reports whether a key survives the journal's one key per line
// and the JSON checkpoint byte for byte: non-empty, valid UTF-8, and free of
// whitespace and control characters. Batch IDs ("<guid>/<seq>") always are.
func validAckKey(key string) bool {
	if key == "" || !utf8.ValidString(key) {
		return false
	}
	for _, r := range key {
		if unicode.IsSpace(r) || unicode.IsControl(r) {
			return false
		}
	}
	return true
}

// insert places a key into the window at the given sequence, evicting the
// oldest retained key if full. Caller holds a.mu (or is pre-concurrency) and
// has checked the key with validAckKey: an empty one would read as a free slot.
func (a *AckStore) insert(key string, seq uint64) {
	if old := a.order[a.next]; old.key != "" {
		delete(a.seen, old.key)
	}
	a.order[a.next] = ackRec{seq: seq, key: key}
	a.next = (a.next + 1) % len(a.order)
	if a.next == 0 {
		a.filled = true
	}
	a.seen[key] = seq
}

// Seen reports whether a batch key is inside the window.
func (a *AckStore) Seen(key string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	_, ok := a.seen[key]
	return ok
}

// Mark adds a batch key to the window and journals it durably.
func (a *AckStore) Mark(key string) {
	a.MarkAll([]string{key})
}

// MarkAll adds a set of batch keys in one journal write — the merge path
// for anti-entropy pulls and drain pushes. Keys the journal cannot replay
// (validAckKey) are dropped.
func (a *AckStore) MarkAll(keys []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var fresh []string
	for _, key := range keys {
		if _, dup := a.seen[key]; dup || !validAckKey(key) {
			continue
		}
		a.seq++
		a.insert(key, a.seq)
		fresh = append(fresh, key)
	}
	if len(fresh) == 0 || a.dir == "" {
		return
	}
	if err := a.appendJournalLocked(fresh); err != nil {
		a.journalErr = err
		return
	}
	a.sinceCkpt += len(fresh)
	if a.sinceCkpt >= a.ckptEvery {
		if err := a.checkpointLocked(); err != nil {
			a.journalErr = err
		}
	}
}

func (a *AckStore) appendJournalLocked(keys []string) error {
	if a.journal == nil {
		f, err := os.OpenFile(filepath.Join(a.dir, ackJournalFile),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		a.journal = f
	}
	var b strings.Builder
	for _, key := range keys {
		b.WriteString(key)
		b.WriteByte('\n')
	}
	if _, err := a.journal.WriteString(b.String()); err != nil {
		return err
	}
	return a.journal.Sync()
}

// Seq returns the total number of acks ever marked — the anti-entropy
// cursor peers compare against.
func (a *AckStore) Seq() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.seq
}

// Since returns the retained keys marked after the given sequence, oldest
// first, plus the current sequence. A caller further behind than the window
// gets only the retained tail — best effort by design.
func (a *AckStore) Since(after uint64) (keys []string, seq uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if after >= a.seq {
		return nil, a.seq
	}
	n := len(a.order)
	start := 0
	if a.filled {
		start = a.next
	}
	count := a.next - start
	if a.filled {
		count = n
	}
	for i := 0; i < count; i++ {
		rec := a.order[(start+i)%n]
		if rec.key != "" && rec.seq > after {
			keys = append(keys, rec.key)
		}
	}
	return keys, a.seq
}

// Window returns the retained keys oldest first — what a draining node
// pushes to its survivors.
func (a *AckStore) Window() []string {
	keys, _ := a.Since(0)
	return keys
}

func (a *AckStore) checkpointLocked() error {
	if a.dir == "" {
		return nil
	}
	ckpt := ackCheckpoint{Seq: a.seq}
	n := len(a.order)
	start := 0
	count := a.next
	if a.filled {
		start = a.next
		count = n
	}
	for i := 0; i < count; i++ {
		if rec := a.order[(start+i)%n]; rec.key != "" {
			ckpt.Keys = append(ckpt.Keys, rec.key)
		}
	}
	data, err := json.Marshal(ckpt)
	if err != nil {
		return err
	}
	if err := fsutil.WriteFileAtomic(filepath.Join(a.dir, ackCheckpointFile), data, 0o644); err != nil {
		return err
	}
	if a.journal != nil {
		a.journal.Close()
		a.journal = nil
	}
	if err := os.Remove(filepath.Join(a.dir, ackJournalFile)); err != nil && !os.IsNotExist(err) {
		return err
	}
	a.sinceCkpt = 0
	return nil
}

// Err returns the first journal-persistence error, if any. The in-memory
// window keeps working through disk trouble; callers that care about
// durability can check.
func (a *AckStore) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.journalErr
}

// Close checkpoints and releases the journal handle.
func (a *AckStore) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	a.closed = true
	err := a.checkpointLocked()
	if a.journal != nil {
		a.journal.Close()
		a.journal = nil
	}
	return err
}

// ackSinceResponse is the JSON reply of the anti-entropy pull endpoint.
type ackSinceResponse struct {
	Seq  uint64   `json:"seq"`
	Keys []string `json:"keys"`
}

// ackMergeRequest is the JSON body of the merge endpoint — a drain pushing
// its window to a survivor.
type ackMergeRequest struct {
	Keys []string `json:"keys"`
}

// ServeSince handles GET AcksPath?since=N: the anti-entropy pull.
func (a *AckStore) ServeSince(w http.ResponseWriter, r *http.Request) {
	after, _ := strconv.ParseUint(r.URL.Query().Get("since"), 10, 64)
	keys, seq := a.Since(after)
	writeJSON(w, ackSinceResponse{Seq: seq, Keys: keys})
}

// ServeMerge handles POST AcksPath: bulk-merge pushed keys (planned drain
// flushing its window to survivors).
func (a *AckStore) ServeMerge(w http.ResponseWriter, r *http.Request) {
	var req ackMergeRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&req); err != nil {
		http.Error(w, "bad merge body", http.StatusBadRequest)
		return
	}
	a.MarkAll(req.Keys)
	writeJSON(w, ackSinceResponse{Seq: a.Seq()})
}
