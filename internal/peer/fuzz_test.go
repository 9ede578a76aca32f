package peer

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"netsession/internal/content"
	"netsession/internal/id"
)

// FuzzPeerStateFiles feeds arbitrary bytes to the two files a peer reads back
// from its state directory at startup: the installation state and a download
// checkpoint. Neither loader may panic or refuse to start. A file that does
// not parse is quarantined as <file>.corrupt with its bytes intact; the state
// is replaced by a fresh installation and the checkpoint is skipped. A file
// that parses round-trips through its writer unchanged.
func FuzzPeerStateFiles(f *testing.F) {
	oid := content.NewObjectID(7, "fuzz/state.bin", 1)
	st := &State{GUID: id.GUID{1, 2, 3}, UploadsEnabled: true}
	st.Secondaries.Push(id.Secondary{9})
	seedDir := f.TempDir()
	if err := st.Save(seedDir); err != nil {
		f.Fatal(err)
	}
	validState, err := os.ReadFile(filepath.Join(seedDir, stateFileName))
	if err != nil {
		f.Fatal(err)
	}
	validCkpt, err := json.Marshal(downloadCheckpoint{Object: oid.Hex(), P2POff: true, StreamBitrateBps: 4e6})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(validState, validCkpt)
	f.Add(validState[:len(validState)/2], validCkpt[:len(validCkpt)/2])
	f.Add([]byte("{not json"), []byte(`{"object":"zz"}`))
	f.Add([]byte(`{"guid":"`+st.GUID.String()+`","secondaries":["abc"]}`), []byte("null"))
	f.Add([]byte{}, []byte(`{"object":"`+oid.Hex()+`","sequential":true,"have":"AQ=="}`))

	f.Fuzz(func(t *testing.T, stateBytes, ckptBytes []byte) {
		dir := t.TempDir()
		statePath := filepath.Join(dir, stateFileName)
		if err := os.WriteFile(statePath, stateBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		parsed, perr := parseState(stateBytes)
		got, err := LoadOrCreateState(dir, true)
		if err != nil {
			t.Fatalf("state file wedged the client: %v", err)
		}
		if perr == nil {
			if *got != *parsed {
				t.Fatalf("loaded %+v, parsed %+v", got, parsed)
			}
		} else {
			quarantined(t, statePath, stateBytes)
		}
		// Whatever was loaded is written back and reads back the same.
		if err := got.Save(dir); err != nil {
			t.Fatal(err)
		}
		again, err := LoadOrCreateState(dir, true)
		if err != nil || *again != *got {
			t.Fatalf("state did not round-trip: %+v -> %+v (%v)", got, again, err)
		}

		c := &Client{ckptDir: filepath.Join(dir, checkpointDirName)}
		if err := os.MkdirAll(c.ckptDir, 0o755); err != nil {
			t.Fatal(err)
		}
		ckptPath := filepath.Join(c.ckptDir, oid.Hex()+".json")
		if err := os.WriteFile(ckptPath, ckptBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		cks := c.loadCheckpoints()
		switch len(cks) {
		case 0:
			quarantined(t, ckptPath, ckptBytes)
		case 1:
			raw, err := json.Marshal(cks[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(ckptPath, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if back := c.loadCheckpoints(); len(back) != 1 || back[0] != cks[0] {
				t.Fatalf("checkpoint did not round-trip: %+v -> %+v", cks[0], back)
			}
		default:
			t.Fatalf("one checkpoint file loaded as %d checkpoints", len(cks))
		}
	})
}

// quarantined asserts that a refused file was moved aside as <path>.corrupt
// with its bytes intact.
func quarantined(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := os.ReadFile(path + ".corrupt")
	if err != nil {
		t.Fatalf("refused file not quarantined: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("quarantined file does not hold the refused bytes")
	}
}
