package accounting

import (
	"errors"
	"fmt"
	"testing"

	"netsession/internal/id"
	"netsession/internal/telemetry"
)

func TestCollectorBoundedDownloadLog(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCollector(nil)
	c.Configure(4, reg)
	for i := 0; i < 10; i++ {
		if err := c.AddDownload(DownloadRecord{StartMs: int64(i), Size: 100}); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Snapshot()
	if len(snap.Downloads) != 4 {
		t.Fatalf("retained %d downloads, want the 4-record cap", len(snap.Downloads))
	}
	for i, d := range snap.Downloads {
		if want := int64(6 + i); d.StartMs != want {
			t.Fatalf("retained record %d has StartMs=%d, want %d (newest window, oldest first)",
				i, d.StartMs, want)
		}
	}
	if got := c.Evicted(); got != 6 {
		t.Fatalf("Evicted() = %d, want 6", got)
	}
	if got := c.AcceptedDownloads(); got != 10 {
		t.Fatalf("AcceptedDownloads() = %d, want 10 (retained + evicted)", got)
	}
	m := reg.Snapshot()
	if got := m.Counters[`accounting_records_total{kind="download"}`]; got != 10 {
		t.Fatalf("download records counter = %d, want 10 (accepted, even if later evicted)", got)
	}
	if got := m.Counters["accounting_evicted_total"]; got != 6 {
		t.Fatalf("evicted counter = %d, want 6", got)
	}
	if got := m.Gauges["accounting_log_records"]; got != 4 {
		t.Fatalf("log size gauge = %v, want 4", got)
	}
}

func TestCollectorBoundedLoginsAndRegistrations(t *testing.T) {
	c := NewCollector(nil)
	c.Configure(3, nil)
	for i := 0; i < 5; i++ {
		c.AddLogin(LoginRecord{TimeMs: int64(i)})
	}
	for i := 0; i < 4; i++ {
		c.AddRegistration(RegistrationRecord{TimeMs: int64(i)})
	}
	snap := c.Snapshot()
	if len(snap.Logins) != 3 || snap.Logins[0].TimeMs != 2 {
		t.Fatalf("logins window %+v, want the newest 3", snap.Logins)
	}
	if len(snap.Registrations) != 3 || snap.Registrations[0].TimeMs != 1 {
		t.Fatalf("registrations window %+v, want the newest 3", snap.Registrations)
	}
	if got := c.Evicted(); got != 2+1 {
		t.Fatalf("Evicted() = %d, want 3", got)
	}
}

func TestCollectorUnboundedOptOut(t *testing.T) {
	c := NewCollector(nil)
	c.Configure(-1, nil)
	for i := 0; i < 100; i++ {
		if err := c.AddDownload(DownloadRecord{StartMs: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.Snapshot().Downloads); got != 100 {
		t.Fatalf("unbounded collector retained %d downloads, want all 100", got)
	}
	if got := c.Evicted(); got != 0 {
		t.Fatalf("unbounded collector evicted %d records", got)
	}
}

// reasonVerifier rejects based on a marker in the record so the per-reason
// telemetry classification can be exercised without an edge ledger.
type reasonVerifier struct{}

func (reasonVerifier) CheckDownload(rec *DownloadRecord) error {
	switch rec.Size {
	case 1:
		return fmt.Errorf("%w: test", ErrUnauthorized)
	case 2:
		return fmt.Errorf("%w: test", ErrOverclaim)
	case 3:
		return errors.New("some other verification failure")
	}
	return nil
}

func TestCollectorRejectReasonCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCollector(reasonVerifier{})
	c.Configure(0, reg)

	if err := c.AddDownload(DownloadRecord{Size: 1}); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("unauthorized report returned %v", err)
	}
	if err := c.AddDownload(DownloadRecord{Size: 2}); !errors.Is(err, ErrOverclaim) {
		t.Fatalf("overclaim report returned %v", err)
	}
	if err := c.AddDownload(DownloadRecord{Size: 3}); err == nil {
		t.Fatal("other verification failure not surfaced")
	}
	if err := c.AddDownload(DownloadRecord{Size: 100, GUID: id.NewGUID()}); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}

	if got := c.Rejected(); got != 3 {
		t.Fatalf("Rejected() = %d, want 3", got)
	}
	if got := len(c.Snapshot().Downloads); got != 1 {
		t.Fatalf("log holds %d downloads, want only the accepted one", got)
	}
	m := reg.Snapshot()
	for reason, want := range map[string]int64{"unauthorized": 1, "overclaim": 1, "other": 1} {
		key := fmt.Sprintf("accounting_rejected_total{reason=%q}", reason)
		if got := m.Counters[key]; got != want {
			t.Fatalf("%s = %d, want %d", key, got, want)
		}
	}
	if got := m.Counters[`accounting_records_total{kind="download"}`]; got != 1 {
		t.Fatalf("download records counter = %d, want 1", got)
	}
}

// TestCollectorRejectsNegativeCounts: a negative size or byte count would
// subtract from billing and analytics. The collector refuses it even with no
// verifier (the control plane's default), and an accepting verifier cannot
// let it through either.
func TestCollectorRejectsNegativeCounts(t *testing.T) {
	bad := []DownloadRecord{
		{Size: -1},
		{Size: 100, BytesInfra: -1 << 40},
		{Size: 100, BytesPeers: -5},
		{Size: 100, PeersReturned: -1},
		{Size: 100, FromPeers: []PeerContribution{{Bytes: 10}, {Bytes: -10}}},
	}
	for _, v := range []Verifier{nil, reasonVerifier{}} {
		reg := telemetry.NewRegistry()
		c := NewCollector(v)
		c.Configure(0, reg)
		for i, rec := range bad {
			if err := c.AddDownload(rec); err == nil {
				t.Fatalf("verifier %T: negative record %d accepted: %+v", v, i, rec)
			}
		}
		if err := c.AddDownload(DownloadRecord{Size: 100, BytesInfra: 60, BytesPeers: 40,
			FromPeers: []PeerContribution{{Bytes: 40}}}); err != nil {
			t.Fatalf("verifier %T: valid record rejected: %v", v, err)
		}
		if got := c.Rejected(); got != len(bad) {
			t.Fatalf("verifier %T: Rejected() = %d, want %d", v, got, len(bad))
		}
		if got := reg.Snapshot().Counters[`accounting_rejected_total{reason="other"}`]; got != int64(len(bad)) {
			t.Fatalf("verifier %T: other-reason rejects = %d, want %d", v, got, len(bad))
		}
		if got := len(c.Snapshot().Downloads); got != 1 {
			t.Fatalf("verifier %T: log holds %d downloads, want 1", v, got)
		}
	}
}

// TestCollectorEagerSeries: every kind and reject reason must exist at zero
// before any report arrives, so dashboards and the satellite assertions on
// /metrics never miss a series.
func TestCollectorEagerSeries(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := NewCollector(nil)
	c.Configure(0, reg)
	_ = c
	m := reg.Snapshot()
	for _, key := range []string{
		`accounting_records_total{kind="download"}`,
		`accounting_records_total{kind="login"}`,
		`accounting_records_total{kind="registration"}`,
		`accounting_rejected_total{reason="unauthorized"}`,
		`accounting_rejected_total{reason="overclaim"}`,
		`accounting_rejected_total{reason="other"}`,
		"accounting_evicted_total",
	} {
		if v, ok := m.Counters[key]; !ok {
			t.Fatalf("series %s not registered eagerly", key)
		} else if v != 0 {
			t.Fatalf("series %s = %d before any report", key, v)
		}
	}
}
