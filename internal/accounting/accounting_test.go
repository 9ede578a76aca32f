package accounting

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"netsession/internal/content"
	"netsession/internal/id"
	"netsession/internal/protocol"
)

type fakeEdge struct {
	auth   map[string]bool
	served map[string]int64
}

func key(g id.GUID, o content.ObjectID) string { return g.String() + o.String() }

func (f *fakeEdge) Authorized(g id.GUID, o content.ObjectID) bool { return f.auth[key(g, o)] }
func (f *fakeEdge) Served(g id.GUID, o content.ObjectID) int64    { return f.served[key(g, o)] }

func TestRecordDerivedQuantities(t *testing.T) {
	r := DownloadRecord{
		BytesInfra: 300, BytesPeers: 700,
		StartMs: 1000, EndMs: 2000,
	}
	if got := r.TotalBytes(); got != 1000 {
		t.Errorf("TotalBytes=%d", got)
	}
	if got := r.PeerEfficiency(); got != 0.7 {
		t.Errorf("PeerEfficiency=%v", got)
	}
	if got := r.SpeedBps(); got != 8000 {
		t.Errorf("SpeedBps=%v", got)
	}
	empty := DownloadRecord{StartMs: 5, EndMs: 5}
	if empty.PeerEfficiency() != 0 || empty.SpeedBps() != 0 {
		t.Error("zero-byte/zero-duration records must not divide by zero")
	}
}

func TestLedgerVerifier(t *testing.T) {
	g := id.NewGUID()
	oid := content.NewObjectID(1, "f", 1)
	fe := &fakeEdge{auth: map[string]bool{}, served: map[string]int64{}}
	v := &LedgerVerifier{Edge: fe, SlackBytes: 10}

	rec := DownloadRecord{GUID: g, Object: oid, BytesInfra: 100}
	if err := v.CheckDownload(&rec); err == nil {
		t.Error("unauthorized download accepted")
	}
	fe.auth[key(g, oid)] = true
	fe.served[key(g, oid)] = 95
	if err := v.CheckDownload(&rec); err != nil {
		t.Errorf("within-slack report rejected: %v", err)
	}
	rec.BytesInfra = 200
	if err := v.CheckDownload(&rec); err == nil {
		t.Error("inflated report accepted")
	} else if !strings.Contains(err.Error(), "claims") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestCollectorFiltersAndCounts(t *testing.T) {
	g := id.NewGUID()
	oid := content.NewObjectID(1, "f", 1)
	fe := &fakeEdge{
		auth:   map[string]bool{key(g, oid): true},
		served: map[string]int64{key(g, oid): 1000},
	}
	c := NewCollector(&LedgerVerifier{Edge: fe, SlackBytes: 1})

	if err := c.AddDownload(DownloadRecord{GUID: g, Object: oid, BytesInfra: 900}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDownload(DownloadRecord{GUID: g, Object: oid, BytesInfra: 90_000}); err == nil {
		t.Fatal("forged record accepted")
	}
	c.AddLogin(LoginRecord{GUID: g})
	c.AddRegistration(RegistrationRecord{GUID: g, Object: oid})

	if c.Rejected() != 1 {
		t.Errorf("Rejected=%d", c.Rejected())
	}
	log := c.Snapshot()
	if len(log.Downloads) != 1 || len(log.Logins) != 1 || len(log.Registrations) != 1 {
		t.Errorf("snapshot sizes wrong: %d/%d/%d",
			len(log.Downloads), len(log.Logins), len(log.Registrations))
	}
	// Snapshot is a copy: appending to it must not affect the collector.
	log.Downloads = append(log.Downloads, DownloadRecord{})
	if len(c.Snapshot().Downloads) != 1 {
		t.Error("snapshot aliases collector state")
	}
}

func TestBillAggregation(t *testing.T) {
	log := &Log{Downloads: []DownloadRecord{
		{CP: 1, BytesInfra: 100, BytesPeers: 300, Outcome: protocol.OutcomeCompleted},
		{CP: 1, BytesInfra: 100, BytesPeers: 0, Outcome: protocol.OutcomeAborted},
		{CP: 2, BytesInfra: 50, BytesPeers: 50, Outcome: protocol.OutcomeCompleted},
	}}
	lines := Bill(log)
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	if lines[0].CP != 1 || lines[1].CP != 2 {
		t.Fatal("lines not sorted by CP")
	}
	l1 := lines[0]
	if l1.Downloads != 2 || l1.Completed != 1 {
		t.Errorf("CP1 downloads/completed = %d/%d", l1.Downloads, l1.Completed)
	}
	if l1.BytesInfra != 200 || l1.BytesPeers != 300 {
		t.Errorf("CP1 bytes = %d/%d", l1.BytesInfra, l1.BytesPeers)
	}
	if l1.PeerEfficiency != 0.6 {
		t.Errorf("CP1 efficiency = %v", l1.PeerEfficiency)
	}
}

func TestWriteCSV(t *testing.T) {
	lines := []BillingLine{
		{CP: 101, Downloads: 3, Completed: 2, BytesInfra: 100, BytesPeers: 300, PeerEfficiency: 0.75},
		{CP: 102, Downloads: 1, Completed: 1, BytesInfra: 50},
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, lines); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want header + 2", len(rows))
	}
	if rows[1][0] != "101" || rows[1][5] != "0.7500" {
		t.Errorf("row 1: %v", rows[1])
	}
	if rows[2][4] != "0" {
		t.Errorf("row 2: %v", rows[2])
	}
}
