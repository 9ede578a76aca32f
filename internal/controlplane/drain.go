package controlplane

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"time"

	"netsession/internal/cluster"
	"netsession/internal/content"
	"netsession/internal/geo"
	"netsession/internal/id"
	"netsession/internal/logpipe"
	"netsession/internal/protocol"
	"netsession/internal/selection"
)

// Cluster-internal endpoints on the operator HTTP surface.
const (
	// DrainPath triggers a planned drain of the receiving node.
	DrainPath = "/v1/drain"
	// HandoffPath receives a draining node's directory snapshot for one
	// region.
	HandoffPath = "/v1/handoff"
	// LeavePath announces a node's planned departure to a survivor.
	LeavePath = "/v1/cluster/leave"
)

// DrainRegion summarizes one region's handoff inside a DrainSummary.
type DrainRegion struct {
	Region   string `json:"region"`
	NewOwner string `json:"newOwner"`
	Entries  int    `json:"entries"`
}

// DrainSummary reports what a planned drain did.
type DrainSummary struct {
	NodeID string `json:"nodeId"`
	// Survivors is how many alive nodes remained to take the load.
	Survivors int `json:"survivors"`
	// Regions lists every owned region handed off with its snapshot size.
	Regions []DrainRegion `json:"regions"`
	// EntriesTransferred totals the directory entries pushed.
	EntriesTransferred int `json:"entriesTransferred"`
	// AcksFlushed is how many batch-ack keys were pushed to survivors.
	AcksFlushed int `json:"acksFlushed"`
}

// handoffEntry is one directory registration on the wire. The object ID
// travels in its full-length hex form; the peer's IP lets the receiver
// re-resolve the geo record against its own EdgeScape.
type handoffEntry struct {
	Object       string `json:"object"`
	GUID         string `json:"guid"`
	Addr         string `json:"addr"`
	NAT          uint8  `json:"nat"`
	ASN          uint32 `json:"asn"`
	Location     uint32 `json:"location"`
	IP           string `json:"ip,omitempty"`
	Complete     bool   `json:"complete"`
	RegisteredMs int64  `json:"registeredMs"`
}

// handoffRequest is a draining node's directory snapshot for one region.
type handoffRequest struct {
	From    string         `json:"from"`
	Region  string         `json:"region"`
	Entries []handoffEntry `json:"entries"`
}

// leaveRequest announces a planned departure.
type leaveRequest struct {
	NodeID string `json:"nodeId"`
}

// drain removes this node from the cluster gracefully, in a fixed order:
// probing stops, every owned region's directory snapshot is pushed to its
// new owner (so the takeover skips the RE-ADD rebuild window entirely), the
// ack window is flushed to survivors, the departure is announced (survivors
// drop us from the ring immediately instead of waiting out FailAfter
// probes), and finally the node's own CNs close, sending its peers through
// their reconnect path onto the new owners. Push failures degrade
// gracefully: a region whose handoff could not be delivered just takes the
// crash path (rebuild window) on its new owner. Safe to call once; later
// calls return the zero summary. Node.Close releases the rest.
func (cp *ControlPlane) drain() DrainSummary {
	cp.drainMu.Lock()
	if cp.drained {
		cp.drainMu.Unlock()
		return DrainSummary{NodeID: cp.cfg.NodeID}
	}
	cp.drained = true
	cp.drainMu.Unlock()

	sum := DrainSummary{NodeID: cp.cfg.NodeID}
	client := &http.Client{Timeout: 5 * time.Second}

	// Stop probing first. A probe of ours reaching a survivor after the leave
	// would be taken for a deliberate rejoin: it clears the tombstone, the
	// survivor re-adds us as alive and releases the regions we handed it.
	cp.member.Stop()
	survivors := cp.member.Others()
	sum.Survivors = len(survivors)

	if len(survivors) > 0 {
		// Predict the post-drain ring: the survivors alone. Each owned
		// region's snapshot goes to exactly the node that will own it, so no
		// entry is pushed twice and none lands on a non-owner.
		ids := make([]string, len(survivors))
		byID := make(map[string]cluster.Node, len(survivors))
		for i, n := range survivors {
			ids[i] = n.ID
			byID[n.ID] = n
		}
		ring := cluster.NewRing(ids)
		for r := 0; r < geo.NumRegions; r++ {
			region := geo.NetworkRegion(r)
			if !cp.OwnsRegion(region) {
				continue
			}
			ownerID, ok := ring.Owner(region.String())
			if !ok {
				continue
			}
			target := byID[ownerID]
			export := cp.dns[r].dir.Export()
			// Empty regions are pushed too: the marker is what lets the new
			// owner skip the rebuild window, and an empty region still
			// deserves a seamless takeover.
			if err := cp.pushHandoff(client, target, region, export); err != nil {
				continue
			}
			cp.metrics.drainRegions.Inc()
			cp.metrics.drainEntries.Add(int64(len(export)))
			sum.Regions = append(sum.Regions, DrainRegion{
				Region: region.String(), NewOwner: ownerID, Entries: len(export),
			})
			sum.EntriesTransferred += len(export)
		}

		// Flush the ack window so batches we acked stay deduplicated after we
		// are gone, even on nodes anti-entropy had not reached yet.
		keys := cp.acks.Window()
		sum.AcksFlushed = len(keys)
		if len(keys) > 0 {
			body, _ := json.Marshal(struct {
				Keys []string `json:"keys"`
			}{Keys: keys})
			for _, n := range survivors {
				resp, err := client.Post(n.StatusURL+logpipe.AcksPath,
					"application/json", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}
		}

		// Announce the departure; survivors re-ring immediately and the
		// transfer markers set above make their takeovers seamless.
		body, _ := json.Marshal(leaveRequest{NodeID: cp.cfg.NodeID})
		for _, n := range survivors {
			resp, err := client.Post(n.StatusURL+LeavePath,
				"application/json", bytes.NewReader(body))
			if err == nil {
				resp.Body.Close()
			}
		}
	}

	// Drop our peers last: they reconnect, and by now the login redirects
	// point at the new owners.
	cp.Close()
	return sum
}

func (cp *ControlPlane) pushHandoff(client *http.Client, target cluster.Node,
	region geo.NetworkRegion, export []selection.ExportEntry) error {
	req := handoffRequest{From: cp.cfg.NodeID, Region: region.String()}
	for _, xe := range export {
		he := handoffEntry{
			Object:       xe.Object.Hex(),
			GUID:         xe.Entry.Info.GUID.String(),
			Addr:         xe.Entry.Info.Addr,
			NAT:          uint8(xe.Entry.Info.NAT),
			ASN:          xe.Entry.Info.ASN,
			Location:     xe.Entry.Info.Location,
			Complete:     xe.Entry.Complete,
			RegisteredMs: xe.Entry.RegisteredMs,
		}
		if xe.Entry.Rec.IP.IsValid() {
			he.IP = xe.Entry.Rec.IP.String()
		}
		req.Entries = append(req.Entries, he)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := client.Post(target.StatusURL+HandoffPath, "application/json",
		bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("handoff to %s: %s", target.ID, resp.Status)
	}
	return nil
}

// SetOnDrained installs a hook invoked after a POST DrainPath drain
// finishes and its response is written — cmd/netsession-cp uses it to exit
// the process.
func (cp *ControlPlane) SetOnDrained(fn func(DrainSummary)) {
	cp.drainMu.Lock()
	cp.drainHook = fn
	cp.drainMu.Unlock()
}

// drainHandler serves POST DrainPath: runs the drain and replies with the
// summary.
func (cp *ControlPlane) drainHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sum := cp.drain()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(sum)
		cp.drainMu.Lock()
		after := cp.drainHook
		cp.drainMu.Unlock()
		if after != nil {
			after(sum)
		}
	})
}

// serveHandoff receives a draining node's directory snapshot for one
// region: entries are imported into the region's directory and the transfer
// marker is set so the takeover (triggered by the leave announcement that
// follows) skips the rebuild window.
func (cp *ControlPlane) serveHandoff(w http.ResponseWriter, r *http.Request) {
	var req handoffRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&req); err != nil {
		http.Error(w, "bad handoff body", http.StatusBadRequest)
		return
	}
	region, ok := regionByName(req.Region)
	if !ok {
		http.Error(w, "unknown region "+req.Region, http.StatusBadRequest)
		return
	}
	now := cp.now()
	imported := 0
	for i := range req.Entries {
		he := &req.Entries[i]
		entry, err := cp.importEntry(he)
		if err != nil {
			continue
		}
		cp.dns[int(region)].dir.Register(entry.obj, entry.e)
		imported++
	}
	cp.ownMu.Lock()
	cp.transferMs[int(region)] = now
	cp.ownMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Imported int `json:"imported"`
	}{Imported: imported})
}

type importedEntry struct {
	obj content.ObjectID
	e   selection.Entry
}

func (cp *ControlPlane) importEntry(he *handoffEntry) (importedEntry, error) {
	var out importedEntry
	obj, err := content.ParseObjectID(he.Object)
	if err != nil {
		return out, err
	}
	out.obj = obj
	g, err := id.ParseGUID(he.GUID)
	if err != nil {
		return out, err
	}
	var rec geo.Record
	if he.IP != "" {
		if ip, perr := netip.ParseAddr(he.IP); perr == nil {
			if got, found := cp.cfg.Scape.Lookup(ip); found {
				rec = got
			}
		}
	}
	out.e = selection.Entry{
		Info: protocol.PeerInfo{
			GUID: g, Addr: he.Addr, NAT: protocol.NATClass(he.NAT),
			ASN: he.ASN, Location: he.Location,
		},
		Rec:          rec,
		Complete:     he.Complete,
		RegisteredMs: he.RegisteredMs,
	}
	return out, nil
}

// serveLeave receives a departing node's announcement and removes it from
// the membership immediately — a drain must not wait out FailAfter probe
// rounds before its regions find their new owners.
func (cp *ControlPlane) serveLeave(w http.ResponseWriter, r *http.Request) {
	var req leaveRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil {
		http.Error(w, "bad leave body", http.StatusBadRequest)
		return
	}
	if req.NodeID == "" {
		http.Error(w, "missing nodeId", http.StatusBadRequest)
		return
	}
	cp.member.MarkLeft(req.NodeID)
	w.WriteHeader(http.StatusOK)
}

func regionByName(name string) (geo.NetworkRegion, bool) {
	for r := 0; r < geo.NumRegions; r++ {
		if geo.NetworkRegion(r).String() == name {
			return geo.NetworkRegion(r), true
		}
	}
	return 0, false
}
