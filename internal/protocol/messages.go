package protocol

import (
	"netsession/internal/content"
	"netsession/internal/id"
)

// NATClass is the wire representation of a peer's NAT/firewall situation as
// determined via STUN (§3.6). The numeric values are stable wire constants.
type NATClass uint8

// NAT classes, ordered roughly by traversal difficulty.
const (
	NATNone NATClass = iota
	NATFullCone
	NATRestricted
	NATPortRestricted
	NATSymmetric
	NATBlocked
)

func (n NATClass) String() string {
	switch n {
	case NATNone:
		return "none"
	case NATFullCone:
		return "full-cone"
	case NATRestricted:
		return "restricted"
	case NATPortRestricted:
		return "port-restricted"
	case NATSymmetric:
		return "symmetric"
	case NATBlocked:
		return "blocked"
	}
	return "unknown"
}

// PeerInfo describes a candidate upload peer as returned by the control
// plane: enough for the downloader to dial it and for the DN's
// connectivity-aware selection to have been applied.
type PeerInfo struct {
	GUID id.GUID
	// Addr is the peer's swarm listener in host:port form (its NAT mapping
	// as observed via STUN, or its direct address).
	Addr string
	NAT  NATClass
	ASN  uint32
	// Location is the peer's LocationID in the atlas; carried so analyses
	// and simulations can attribute traffic without a reverse lookup.
	Location uint32
}

func (p *PeerInfo) encodeTo(e *encoder) {
	e.guid(p.GUID)
	e.str(p.Addr)
	e.u8(uint8(p.NAT))
	e.u32(p.ASN)
	e.u32(p.Location)
}

func (p *PeerInfo) decodeFrom(d *decoder) {
	p.GUID = d.guid()
	p.Addr = d.str()
	p.NAT = NATClass(d.u8())
	p.ASN = d.u32()
	p.Location = d.u32()
}

// Login opens (or refreshes) a peer's session on a connection node. The
// secondary-GUID window lets the control plane detect cloned or re-imaged
// installations (§6.2).
type Login struct {
	GUID            id.GUID
	Secondaries     [id.HistoryLen]id.Secondary
	SoftwareVersion string
	UploadsEnabled  bool
	// SwarmAddr is the address the peer's swarm listener is reachable at
	// (possibly a NAT mapping discovered via STUN).
	SwarmAddr string
	NAT       NATClass
	// DeclaredIP is the peer's public IP in the experiment's synthetic
	// address plan. The production system derives this from the connection
	// source address; with every live-mode peer on 127.0.0.1 the synthetic
	// identity must ride along explicitly so geolocation still works.
	DeclaredIP string
}

func (*Login) Type() MsgType { return TLogin }

func (m *Login) encodeTo(e *encoder) {
	e.guid(m.GUID)
	for _, s := range m.Secondaries {
		e.secondary(s)
	}
	e.str(m.SoftwareVersion)
	e.boolean(m.UploadsEnabled)
	e.str(m.SwarmAddr)
	e.u8(uint8(m.NAT))
	e.str(m.DeclaredIP)
}

func (m *Login) decodeFrom(d *decoder) {
	m.GUID = d.guid()
	for i := range m.Secondaries {
		m.Secondaries[i] = d.secondary()
	}
	m.SoftwareVersion = d.str()
	m.UploadsEnabled = d.boolean()
	m.SwarmAddr = d.str()
	m.NAT = NATClass(d.u8())
	m.DeclaredIP = d.str()
}

// LoginAck acknowledges a login. When the control plane is shedding load
// after a large-scale failure, OK is false and RetryAfterMs tells the peer
// when to reconnect ("reconnections are rate-limited to ensure a smooth
// recovery", §3.8).
type LoginAck struct {
	OK           bool
	RetryAfterMs uint32
	ConfigEpoch  uint32
	// RedirectAddr, when non-empty on a rejected login, is the CN address of
	// the control-plane node that owns the peer's region; the peer should
	// reconnect there instead of waiting out RetryAfterMs. This is how a
	// multi-node control plane steers each region's peers to the ring owner.
	RedirectAddr string
}

func (*LoginAck) Type() MsgType { return TLoginAck }

func (m *LoginAck) encodeTo(e *encoder) {
	e.boolean(m.OK)
	e.u32(m.RetryAfterMs)
	e.u32(m.ConfigEpoch)
	e.str(m.RedirectAddr)
}

func (m *LoginAck) decodeFrom(d *decoder) {
	m.OK = d.boolean()
	m.RetryAfterMs = d.u32()
	m.ConfigEpoch = d.u32()
	m.RedirectAddr = d.str()
}

// Query asks the control plane for peers that hold an object. The token was
// minted by an edge server at authorization time; peers may only "search for
// peers" with a valid token (§3.5).
type Query struct {
	Object   content.ObjectID
	Token    []byte
	MaxPeers uint16
}

func (*Query) Type() MsgType { return TQuery }

func (m *Query) encodeTo(e *encoder) {
	e.objectID(m.Object)
	e.bytes(m.Token)
	e.u16(m.MaxPeers)
}

func (m *Query) decodeFrom(d *decoder) {
	m.Object = d.objectID()
	m.Token = d.bytes()
	m.MaxPeers = d.u16()
}

// QueryResult returns the selected peers, or an error string (e.g. when the
// token is invalid).
type QueryResult struct {
	Object content.ObjectID
	Peers  []PeerInfo
	Err    string
}

func (*QueryResult) Type() MsgType { return TQueryResult }

func (m *QueryResult) encodeTo(e *encoder) {
	e.objectID(m.Object)
	e.u16(uint16(len(m.Peers)))
	for i := range m.Peers {
		m.Peers[i].encodeTo(e)
	}
	e.str(m.Err)
}

func (m *QueryResult) decodeFrom(d *decoder) {
	m.Object = d.objectID()
	n := int(d.u16())
	for i := 0; i < n && d.err == nil; i++ {
		var p PeerInfo
		p.decodeFrom(d)
		m.Peers = append(m.Peers, p)
	}
	m.Err = d.str()
}

// ConnectTo instructs a peer, over its persistent control connection, to
// initiate a connection to another peer — the control plane "instructs both
// the querying peer and the chosen peers to initiate connections to each
// other" (§3.7), which is what makes NAT hole punching work.
type ConnectTo struct {
	Object content.ObjectID
	Peer   PeerInfo
}

func (*ConnectTo) Type() MsgType { return TConnectTo }

func (m *ConnectTo) encodeTo(e *encoder) {
	e.objectID(m.Object)
	m.Peer.encodeTo(e)
}

func (m *ConnectTo) decodeFrom(d *decoder) {
	m.Object = d.objectID()
	m.Peer.decodeFrom(d)
}

// Register announces that this peer holds (part of) an object and is willing
// to serve it. Peers appear in the DN database "only when a) uploads are
// explicitly enabled on the peer, and b) the peer currently has objects to
// share" (§3.6).
type Register struct {
	Object    content.ObjectID
	NumPieces uint32
	HaveCount uint32
	Complete  bool
}

func (*Register) Type() MsgType { return TRegister }

func (m *Register) encodeTo(e *encoder) {
	e.objectID(m.Object)
	e.u32(m.NumPieces)
	e.u32(m.HaveCount)
	e.boolean(m.Complete)
}

func (m *Register) decodeFrom(d *decoder) {
	m.Object = d.objectID()
	m.NumPieces = d.u32()
	m.HaveCount = d.u32()
	m.Complete = d.boolean()
}

// Unregister withdraws an object registration (cache eviction, uploads
// disabled, or upload cap reached).
type Unregister struct {
	Object content.ObjectID
}

func (*Unregister) Type() MsgType { return TUnregister }

func (m *Unregister) encodeTo(e *encoder)   { e.objectID(m.Object) }
func (m *Unregister) decodeFrom(d *decoder) { m.Object = d.objectID() }

// ReAdd asks a peer to re-list its stored objects after a DN loss: "If a DN
// goes down, the CNs connected to that DN send a RE-ADD message to their
// peers, asking them to list the files that they are storing" (§3.8). The
// peer lists them the way it does after every login: one Register per stored
// object.
type ReAdd struct{}

func (*ReAdd) Type() MsgType       { return TReAdd }
func (*ReAdd) encodeTo(*encoder)   {}
func (*ReAdd) decodeFrom(*decoder) {}

// Outcome is the terminal state of a download as recorded in the logs
// (§5.2): completed, failed (with a cause class), or aborted/paused by the
// user and never resumed.
type Outcome uint8

// Download outcomes.
const (
	OutcomeCompleted Outcome = iota
	OutcomeFailedSystem
	OutcomeFailedOther
	OutcomeAborted
)

func (o Outcome) String() string {
	switch o {
	case OutcomeCompleted:
		return "completed"
	case OutcomeFailedSystem:
		return "failed-system"
	case OutcomeFailedOther:
		return "failed-other"
	case OutcomeAborted:
		return "aborted"
	}
	return "unknown"
}

// UsageLog is the per-download usage record a peer sends its CN when a
// download reaches a terminal state and the record cannot go through the
// batched log pipeline (§3.4, §4.1). Entry holds the record in the log
// pipeline's own encoding, the same bytes the spool writes; this package
// does not look inside it.
type UsageLog struct {
	Entry []byte
}

func (*UsageLog) Type() MsgType           { return TUsageLog }
func (m *UsageLog) encodeTo(e *encoder)   { e.bytes(m.Entry) }
func (m *UsageLog) decodeFrom(d *decoder) { m.Entry = d.bytes() }

// ConfigUpdate pushes globally configurable client policy to peers over the
// control connection ("peers use the connection to learn about configuration
// updates", §3.4).
type ConfigUpdate struct {
	Epoch uint32
	// MaxUploadConns is the "globally configurable limit on the total
	// number of upload connections a peer allows" (§3.4).
	MaxUploadConns uint16
	// PerObjectUploadCap bounds how many times one peer uploads one object
	// ("peers upload each object at most a limited number of times", §3.9).
	PerObjectUploadCap uint16
	// UploadRateBps caps aggregate upload bandwidth.
	UploadRateBps uint64
	// CacheTTLSec is how long completed downloads stay shareable.
	CacheTTLSec uint32
	// TargetVersion, when non-empty, directs clients below it to upgrade:
	// "the client software version is centrally controlled by the CDN
	// infrastructure, and peers can perform automated upgrades in the
	// background on demand" (§3.8).
	TargetVersion string
}

func (*ConfigUpdate) Type() MsgType { return TConfigUpdate }

func (m *ConfigUpdate) encodeTo(e *encoder) {
	e.u32(m.Epoch)
	e.u16(m.MaxUploadConns)
	e.u16(m.PerObjectUploadCap)
	e.u64(m.UploadRateBps)
	e.u32(m.CacheTTLSec)
	e.str(m.TargetVersion)
}

func (m *ConfigUpdate) decodeFrom(d *decoder) {
	m.Epoch = d.u32()
	m.MaxUploadConns = d.u16()
	m.PerObjectUploadCap = d.u16()
	m.UploadRateBps = d.u64()
	m.CacheTTLSec = d.u32()
	m.TargetVersion = d.str()
}

// Ping is a liveness probe in either direction on the control connection.
type Ping struct{ Nonce uint64 }

func (*Ping) Type() MsgType           { return TPing }
func (m *Ping) encodeTo(e *encoder)   { e.u64(m.Nonce) }
func (m *Ping) decodeFrom(d *decoder) { m.Nonce = d.u64() }

// Pong answers a Ping, echoing the nonce.
type Pong struct{ Nonce uint64 }

func (*Pong) Type() MsgType           { return TPong }
func (m *Pong) encodeTo(e *encoder)   { e.u64(m.Nonce) }
func (m *Pong) decodeFrom(d *decoder) { m.Nonce = d.u64() }

// Handshake opens a swarm connection for one object. The token proves the
// dialing peer is authorized to obtain the object from peers (§3.5).
type Handshake struct {
	GUID   id.GUID
	Object content.ObjectID
	Token  []byte
}

func (*Handshake) Type() MsgType { return THandshake }

func (m *Handshake) encodeTo(e *encoder) {
	e.guid(m.GUID)
	e.objectID(m.Object)
	e.bytes(m.Token)
}

func (m *Handshake) decodeFrom(d *decoder) {
	m.GUID = d.guid()
	m.Object = d.objectID()
	m.Token = d.bytes()
}

// HandshakeAck accepts or rejects a swarm handshake.
type HandshakeAck struct {
	OK        bool
	NumPieces uint32
	Reason    string
}

func (*HandshakeAck) Type() MsgType { return THandshakeAck }

func (m *HandshakeAck) encodeTo(e *encoder) {
	e.boolean(m.OK)
	e.u32(m.NumPieces)
	e.str(m.Reason)
}

func (m *HandshakeAck) decodeFrom(d *decoder) {
	m.OK = d.boolean()
	m.NumPieces = d.u32()
	m.Reason = d.str()
}

// BitfieldMsg announces which pieces the sender holds.
type BitfieldMsg struct {
	Bits []byte
}

func (*BitfieldMsg) Type() MsgType           { return TBitfield }
func (m *BitfieldMsg) encodeTo(e *encoder)   { e.bytes(m.Bits) }
func (m *BitfieldMsg) decodeFrom(d *decoder) { m.Bits = d.bytes() }

// Have announces a newly verified piece. A downloader sends it on each of
// its swarm connections whose remote has not announced the piece (in its
// bitfield or a HAVE of its own), and to a remote whose bitfield has not
// arrived yet; a remote already holding the piece gets none.
type Have struct{ Index uint32 }

func (*Have) Type() MsgType           { return THave }
func (m *Have) encodeTo(e *encoder)   { e.u32(m.Index) }
func (m *Have) decodeFrom(d *decoder) { m.Index = d.u32() }

// Request asks the remote peer for one piece.
type Request struct{ Index uint32 }

func (*Request) Type() MsgType           { return TRequest }
func (m *Request) encodeTo(e *encoder)   { e.u32(m.Index) }
func (m *Request) decodeFrom(d *decoder) { m.Index = d.u32() }

// Piece delivers piece data. Data travels by reference both ways: it is
// written straight from the sender's slice, and a decoded Data aliases the
// frame payload ReadMessage allocated for this message.
type Piece struct {
	Index uint32
	Data  []byte
}

func (*Piece) Type() MsgType { return TPiece }

func (m *Piece) encodeTo(e *encoder) {
	e.u32(m.Index)
	e.ref(m.Data)
}

func (m *Piece) decodeFrom(d *decoder) {
	m.Index = d.u32()
	m.Data = d.ref()
}

// Goodbye announces an orderly close of a swarm connection.
type Goodbye struct{ Reason string }

func (*Goodbye) Type() MsgType           { return TGoodbye }
func (m *Goodbye) encodeTo(e *encoder)   { e.str(m.Reason) }
func (m *Goodbye) decodeFrom(d *decoder) { m.Reason = d.str() }
