package peer

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"netsession/internal/accounting"
	"netsession/internal/analysis"
	"netsession/internal/content"
	"netsession/internal/id"
)

func TestStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := LoadOrCreateState(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.GUID.IsZero() || !st.UploadsEnabled {
		t.Fatal("fresh state malformed")
	}
	st.Secondaries.Push(id.NewSecondary())
	st.UploadsEnabled = false
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	st2, err := LoadOrCreateState(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if st2.GUID != st.GUID {
		t.Error("GUID not persisted")
	}
	if st2.UploadsEnabled {
		t.Error("preference not persisted")
	}
	if st2.Secondaries.Window != st.Secondaries.Window {
		t.Error("secondary window not persisted")
	}
}

// TestStateRecoversFromCorruption: a corrupt state file must not wedge the
// client. The damaged file is quarantined as evidence and the installation
// starts fresh (new GUID), like a reinstall.
func TestStateRecoversFromCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, stateFileName)
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := LoadOrCreateState(dir, true)
	if err != nil {
		t.Fatalf("corrupt state wedged the client: %v", err)
	}
	if st.GUID.IsZero() {
		t.Error("recovered state has no GUID")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Error("corrupt state file not quarantined")
	}
}

// TestCheckpointLoadsRetiredKeys: a download checkpoint written by an older
// client still resumes. Keys no longer written (the in-order mode, the piece
// counts) are ignored, and the object ID goes through the one text form.
func TestCheckpointLoadsRetiredKeys(t *testing.T) {
	dir := t.TempDir()
	oid := content.NewObjectID(7, "retired/keys.bin", 1)
	old := `{"object":"` + oid.Hex() + `","p2pOff":true,"sequential":true,"have":"AQ==","numPieces":4,"updatedMs":5}`
	if err := os.WriteFile(filepath.Join(dir, oid.Hex()+".json"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	c := &Client{ckptDir: dir}
	cks := c.loadCheckpoints()
	if len(cks) != 1 {
		t.Fatalf("loaded %d checkpoints, want 1", len(cks))
	}
	if cks[0].objectID() != oid || !cks[0].P2POff {
		t.Fatalf("checkpoint loaded as %+v", cks[0])
	}
}

// TestStateRecoversFromTornWrite simulates a power loss mid-write: the JSON
// is truncated at an arbitrary byte. LoadOrCreateState must recover with a
// fresh installation rather than erroring, and the torn file must be kept
// for inspection.
func TestStateRecoversFromTornWrite(t *testing.T) {
	dir := t.TempDir()
	st, err := LoadOrCreateState(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	st.Secondaries.Push(id.NewSecondary())
	if err := st.Save(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, stateFileName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := LoadOrCreateState(dir, true)
	if err != nil {
		t.Fatalf("torn state file wedged the client: %v", err)
	}
	if st2.GUID.IsZero() {
		t.Error("recovered state has no GUID")
	}
	if st2.GUID == st.GUID {
		t.Error("torn state recovered the old GUID (parse should have failed)")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Error("torn state file not quarantined")
	}
	// The recovery is itself durable: a second load sees the fresh state.
	st3, err := LoadOrCreateState(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if st3.GUID != st2.GUID {
		t.Error("fresh installation not persisted")
	}
}

// restartPeer runs a short-lived client session from a state directory.
func restartPeer(t *testing.T, d *deployment, dir, declaredIP string) id.GUID {
	t.Helper()
	cl, err := New(Config{
		StateDir:     dir,
		DeclaredIP:   declaredIP,
		ControlAddrs: d.cnAddrs(),
		EdgeURL:      "http://" + d.edgeSrv.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cl.WaitControlConnected(5 * time.Second) {
		t.Fatal("control connection failed")
	}
	g := cl.GUID()
	cl.Close()
	return g
}

// TestCloneDetectionEndToEnd reproduces §6.2 live: a peer restarts a few
// times (linear chain), its state directory is copied ("re-imaged"), and
// both copies keep running. The control-plane logins, fed to the Figure 12
// analysis, expose the clone as a non-linear secondary-GUID graph.
func TestCloneDetectionEndToEnd(t *testing.T) {
	obj := e2eObject(t, 10_000, false)
	d := newDeployment(t, 1, obj)
	c, _ := d.atlas.Country("US")
	ip1, err := d.scape.AllocateIP(c.ASNs[0], c.Locations[0])
	if err != nil {
		t.Fatal(err)
	}
	ip2, err := d.scape.AllocateIP(c.ASNs[0], c.Locations[0])
	if err != nil {
		t.Fatal(err)
	}

	// A healthy installation: five restarts, linear chain.
	dirA := t.TempDir()
	var guid id.GUID
	for i := 0; i < 5; i++ {
		guid = restartPeer(t, d, dirA, ip1.String())
	}

	// "Re-image": copy the installation state wholesale.
	dirB := t.TempDir()
	raw, err := os.ReadFile(filepath.Join(dirA, stateFileName))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dirB, stateFileName), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Both installations keep restarting; their secondary chains fork.
	for i := 0; i < 3; i++ {
		if g := restartPeer(t, d, dirA, ip1.String()); g != guid {
			t.Fatal("GUID changed across restarts")
		}
		if g := restartPeer(t, d, dirB, ip2.String()); g != guid {
			t.Fatal("clone has a different GUID (state copy failed)")
		}
	}

	log := d.cp.Collector().Snapshot()
	if len(log.Logins) < 10 {
		t.Fatalf("only %d logins collected", len(log.Logins))
	}
	f12 := analysis.Analyze(&analysis.Input{Records: &accounting.Log{Logins: log.Logins}}, 0).Figure12()
	if f12.Graphs != 1 {
		t.Fatalf("expected 1 graph (one primary GUID), got %d", f12.Graphs)
	}
	if f12.Count[analysis.GraphLinear] != 0 {
		t.Fatal("cloned installation classified as a linear chain")
	}
	nonLinear := f12.Count[analysis.GraphShortBranch] + f12.Count[analysis.GraphTwoLong] +
		f12.Count[analysis.GraphManyBranches] + f12.Count[analysis.GraphIrregular]
	if nonLinear != 1 {
		t.Fatalf("clone not detected as non-linear: counts %v", f12.Count)
	}
}

// TestLinearChainEndToEnd is the control: restarts without cloning stay a
// linear chain.
func TestLinearChainEndToEnd(t *testing.T) {
	obj := e2eObject(t, 10_000, false)
	d := newDeployment(t, 1, obj)
	c, _ := d.atlas.Country("US")
	ip, err := d.scape.AllocateIP(c.ASNs[0], c.Locations[0])
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i := 0; i < 7; i++ {
		restartPeer(t, d, dir, ip.String())
	}
	log := d.cp.Collector().Snapshot()
	f12 := analysis.Analyze(&analysis.Input{Records: &accounting.Log{Logins: log.Logins}}, 0).Figure12()
	if f12.Graphs != 1 || f12.Count[analysis.GraphLinear] != 1 {
		t.Fatalf("healthy installation not linear: graphs=%d counts=%v", f12.Graphs, f12.Count)
	}
}

// TestStatePersistsPreferenceFlips ensures the on-disk state tracks the
// user's toggle, so a restart keeps the chosen setting (Table 3 semantics).
func TestStatePersistsPreferenceFlips(t *testing.T) {
	obj := e2eObject(t, 10_000, false)
	d := newDeployment(t, 1, obj)
	c, _ := d.atlas.Country("US")
	ip, err := d.scape.AllocateIP(c.ASNs[0], c.Locations[0])
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cl, err := New(Config{
		StateDir:       dir,
		DeclaredIP:     ip.String(),
		ControlAddrs:   d.cnAddrs(),
		EdgeURL:        "http://" + d.edgeSrv.Addr(),
		UploadsEnabled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !cl.Preferences().UploadsEnabled() {
		t.Fatal("default not applied")
	}
	cl.Preferences().SetUploadsEnabled(false)
	cl.Close()

	st, err := LoadOrCreateState(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.UploadsEnabled {
		t.Fatal("preference flip not persisted")
	}
}
