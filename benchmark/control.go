package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"time"

	"netsession"
	"netsession/internal/content"
	"netsession/internal/edge"
	"netsession/internal/id"
	"netsession/internal/protocol"
)

const (
	mixHolders  = 1000
	mixObjects  = 32
	mixMaxPeers = 40
	mixRate     = 1000 // operations per second offered in the open-loop phase
	mixIPPool   = 64   // identities per country that login churn cycles through
)

// mixCountries each lie wholly inside one control-plane region, so a query
// always finds the holders registered from the same country.
var mixCountries = []string{"JP", "BR", "IN"}

// cnSession is a raw protocol client on a real connection-node socket.
type cnSession struct {
	conn       net.Conn
	br         *bufio.Reader
	guid       id.GUID
	tokens     [][]byte // edge-issued search token per object
	registered []bool   // whether this session currently lists each object
}

// login dials a connection node and opens a session.
func login(addr string, g id.GUID, ip string) (*cnSession, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	s := &cnSession{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), guid: g}
	err = protocol.WriteMessage(conn, &protocol.Login{
		GUID: g, SoftwareVersion: "bench", UploadsEnabled: true,
		SwarmAddr: "127.0.0.1:9", NAT: protocol.NATNone, DeclaredIP: ip,
	})
	if err == nil {
		var m protocol.Message
		if m, err = protocol.ReadMessage(s.br); err == nil {
			if ack, ok := m.(*protocol.LoginAck); !ok || !ack.OK {
				err = fmt.Errorf("login refused: %+v", m)
			}
		}
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	return s, nil
}

// await reads frames until one of type T arrives; ConnectTo and
// configuration frames in between are the control plane talking to a holder.
func await[T protocol.Message](s *cnSession) (T, error) {
	for {
		m, err := protocol.ReadMessage(s.br)
		if err != nil {
			var zero T
			return zero, err
		}
		if t, ok := m.(T); ok {
			return t, nil
		}
	}
}

// mixEnv is a control plane with its directory populated, and the load
// generators' own sessions.
type mixEnv struct {
	c       *netsession.Cluster
	addr    string
	oids    []content.ObjectID
	holders []net.Conn
	ips     [][]string // [country][mixIPPool]
	clients []*mixClient
}

// mixClient is one load generator: a goroutine with a session in every
// country, of which it uses one at a time.
type mixClient struct {
	e        *mixEnv
	rng      *rand.Rand
	zipf     *rand.Zipf
	sessions []*cnSession
	churned  int
}

func setupControlMix(rc *runCtx) (env, error) {
	c, err := netsession.StartCluster(netsession.DefaultClusterConfig())
	if err != nil {
		return nil, err
	}
	e := &mixEnv{c: c, addr: c.ControlAddrs()[0]}
	if err := e.populate(rc); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *mixEnv) populate(rc *runCtx) error {
	rng := rand.New(rand.NewSource(rc.seed))
	for i := 0; i < mixObjects; i++ {
		url := fmt.Sprintf("bench/seed-%d/obj-%d.bin", rc.seed, i)
		obj, err := netsession.NewObject(7002, url, 1, 256<<10, 256<<10, true)
		if err == nil {
			err = e.c.Publish(obj)
		}
		if err != nil {
			return err
		}
		e.oids = append(e.oids, obj.ID)
	}
	for _, country := range mixCountries {
		pool := make([]string, mixIPPool)
		for i := range pool {
			ip, err := e.c.AllocateIdentity(country)
			if err != nil {
				return err
			}
			pool[i] = ip
		}
		e.ips = append(e.ips, pool)
	}

	// Holders: every (country, object) pair gets one so no query comes back
	// empty; the rest follow a Zipf(1.2) popularity curve. The curve is the
	// same for every seed — the seed picks who the holders are, not how many
	// hold what — so that runs with different seeds cost the same.
	objOf := holderObjects()
	for h := 0; h < mixHolders; h++ {
		country, obj := h%len(mixCountries), objOf[h]
		ip, err := e.c.AllocateIdentity(mixCountries[country])
		if err != nil {
			return err
		}
		s, err := login(e.addr, id.RandGUID(rng), ip)
		if err != nil {
			return fmt.Errorf("holder login: %w", err)
		}
		e.holders = append(e.holders, s.conn)
		err = protocol.WriteMessage(s.conn, &protocol.Register{Object: e.oids[obj], NumPieces: 1, HaveCount: 1, Complete: true})
		if err == nil {
			// The pong proves the register before it has been handled.
			if err = protocol.WriteMessage(s.conn, &protocol.Ping{Nonce: 1}); err == nil {
				_, err = await[*protocol.Pong](s)
			}
		}
		if err != nil {
			return fmt.Errorf("holder register: %w", err)
		}
		// From here on a holder drains its ConnectTo frames and acts on none;
		// closing its connection ends the goroutine.
		go io.Copy(io.Discard, s.br)
	}

	ec := &edge.Client{BaseURL: e.c.EdgeURL()}
	for cl := 0; cl < clients; cl++ {
		crng := clientRand(rc.seed, cl)
		mc := &mixClient{e: e, rng: crng, zipf: rand.NewZipf(crng, 1.2, 1, mixObjects-1)}
		for ci := range mixCountries {
			s, err := login(e.addr, id.RandGUID(crng), e.ips[ci][cl])
			if err != nil {
				return fmt.Errorf("client login: %w", err)
			}
			mc.sessions = append(mc.sessions, s)
			s.registered = make([]bool, mixObjects)
			for _, oid := range e.oids {
				auth, err := ec.Authorize(s.guid, oid)
				if err != nil {
					return err
				}
				s.tokens = append(s.tokens, auth.Token)
			}
		}
		e.clients = append(e.clients, mc)
		// Warm up the sessions and the selector; these queries are discarded.
		for i := 0; i < 200; i++ {
			if bad := mc.op(nil, opQuery); bad != "" {
				return fmt.Errorf("warm-up: %s", bad)
			}
		}
	}
	return nil
}

// holderObjects returns the object each holder lists.
func holderObjects() []int {
	objs := make([]int, 0, mixHolders)
	for len(objs) < len(mixCountries)*mixObjects {
		objs = append(objs, len(objs)/len(mixCountries))
	}
	rest, norm := mixHolders-len(objs), 0.0
	for k := 1; k <= mixObjects; k++ {
		norm += math.Pow(float64(k), -1.2)
	}
	for obj := 0; obj < mixObjects; obj++ {
		for n := int(float64(rest) * math.Pow(float64(obj+1), -1.2) / norm); n > 0; n-- {
			objs = append(objs, obj)
		}
	}
	for len(objs) < mixHolders {
		objs = append(objs, 0) // what rounding left over lists the most popular object
	}
	return objs
}

func (e *mixEnv) close() {
	for _, mc := range e.clients {
		for _, s := range mc.sessions {
			s.conn.Close()
		}
	}
	for _, h := range e.holders {
		h.Close()
	}
	e.c.Close()
}

type opKind int

const (
	opQuery opKind = iota
	opRegister
	opLogin
)

func (k opKind) String() string { return [...]string{"query", "register", "login"}[k] }

// pick draws from the mix: 70 % queries, 15 % directory writes, 15 % login
// churn — writes beside reads, so a faster Select that slows Register shows.
func (mc *mixClient) pick() opKind {
	switch n := mc.rng.Intn(100); {
	case n < 70:
		return opQuery
	case n < 85:
		return opRegister
	default:
		return opLogin
	}
}

// sendQuery writes a query for a popularity-drawn object.
func (mc *mixClient) sendQuery(s *cnSession) error {
	obj := mc.zipf.Uint64()
	return protocol.WriteMessage(s.conn, &protocol.Query{Object: mc.e.oids[obj], Token: s.tokens[obj], MaxPeers: mixMaxPeers})
}

func checkResult(qr *protocol.QueryResult) string {
	switch {
	case qr.Err != "":
		return "query error: " + qr.Err
	case len(qr.Peers) == 0:
		return "query returned no peers"
	}
	return ""
}

// toggle registers an object the session does not list, or withdraws one it
// does. Neither has a reply; the next reply on the session proves the control
// plane has handled it, because a session's frames are handled in order.
func (mc *mixClient) toggle(s *cnSession) error {
	obj := mc.rng.Intn(mixObjects)
	s.registered[obj] = !s.registered[obj]
	if s.registered[obj] {
		return protocol.WriteMessage(s.conn, &protocol.Register{Object: mc.e.oids[obj], NumPieces: 1, HaveCount: 1, Complete: true})
	}
	return protocol.WriteMessage(s.conn, &protocol.Unregister{Object: mc.e.oids[obj]})
}

// churn is one short-lived session: dial, log in, be acknowledged, leave.
func (mc *mixClient) churn(country int) error {
	mc.churned++
	ip := mc.e.ips[country][mc.churned%mixIPPool]
	s, err := login(mc.e.addr, id.RandGUID(mc.rng), ip)
	if err != nil {
		return err
	}
	return s.conn.Close()
}

// op performs one closed-loop operation and returns what failed, if anything.
func (mc *mixClient) op(rec *recorder, k opKind) string {
	country := mc.rng.Intn(len(mixCountries))
	s := mc.sessions[country]
	sp := rec.begin(0, rec.op(), "controlplane", k.String())
	defer rec.end(sp)
	var err error
	switch k {
	case opQuery:
		if err = mc.sendQuery(s); err == nil {
			var qr *protocol.QueryResult
			if qr, err = await[*protocol.QueryResult](s); err == nil {
				return checkResult(qr)
			}
		}
	case opRegister:
		err = mc.toggle(s)
	case opLogin:
		err = mc.churn(country)
	}
	if err != nil {
		return k.String() + ": " + err.Error()
	}
	return ""
}

// flush waits until the control plane has handled everything the client's
// sessions have sent.
func (mc *mixClient) flush() error {
	for _, s := range mc.sessions {
		if err := protocol.WriteMessage(s.conn, &protocol.Ping{Nonce: 1}); err != nil {
			return err
		}
		if _, err := await[*protocol.Pong](s); err != nil {
			return err
		}
	}
	return nil
}

// run measures throughput in a closed loop, then query latency in an open
// loop at a fixed rate, half the run each.
func (e *mixEnv) run(rc *runCtx) (*outcome, error) {
	var (
		mu  sync.Mutex
		out outcome
	)
	count := func(bad string) {
		mu.Lock()
		out.attempted++
		if bad != "" {
			out.fail(bad)
		}
		mu.Unlock()
	}

	// Phase A: closed loop at saturation.
	start := time.Now()
	deadline := start.Add(rc.duration() / 2)
	eachClient(func(cl int) {
		mc := e.clients[cl]
		for time.Now().Before(deadline) {
			count(mc.op(rc.rec, mc.pick()))
		}
		if err := mc.flush(); err != nil {
			count("flush: " + err.Error())
		}
	})
	elapsed := time.Since(start).Seconds()
	total := out.attempted - out.failed
	out.opsPerSec = float64(total) / elapsed

	// Phase B: open loop. Each client offers half the rate on a fixed
	// schedule whatever the replies do; a query is timed from when it was
	// due, so a stall is charged to every request it delays.
	var late []float64
	startB := time.Now()
	interval := time.Second * time.Duration(len(e.clients)) / mixRate
	perClient := int(rc.duration() / 2 / interval)
	eachClient(func(cl int) {
		lat, lateness := e.clients[cl].openLoop(rc.rec, startB, interval, perClient, count)
		mu.Lock()
		out.lat = append(out.lat, lat...)
		late = append(late, lateness...)
		mu.Unlock()
	})
	elapsedB := time.Since(startB).Seconds()

	s := sortedCopy(out.lat)
	out.extra = append(out.extra,
		metric{"cn_ops_per_s", "1/s", out.opsPerSec, total},
		metric{"cn_query_ms_p50", "ms", quantile(s, 0.5), len(s)},
		metric{"cn_query_ms_p99", "ms", quantile(s, 0.99), len(s)},
		metric{"open_loop_offered_per_s", "1/s", mixRate, perClient * len(e.clients)},
		metric{"open_loop_achieved_per_s", "1/s", float64(perClient*len(e.clients)) / elapsedB, perClient * len(e.clients)},
		metric{"generator_late_ms_p99", "ms", quantile(sortedCopy(late), 0.99), len(late)})
	return &out, nil
}

// sentQuery is a query on the wire whose result has not been read yet.
type sentQuery struct {
	due, sent time.Time
}

// openLoop sends n operations, the i-th due at start+i*interval, and returns
// the query latencies from due time and how late each operation started.
func (mc *mixClient) openLoop(rec *recorder, start time.Time, interval time.Duration, n int, count func(string)) (lat, late []float64) {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		pending = make([]chan sentQuery, len(mc.sessions))
	)
	for i, s := range mc.sessions {
		// Sized to the whole schedule: the sender must never wait for a reader.
		pending[i] = make(chan sentQuery, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := range pending[i] {
				qr, err := await[*protocol.QueryResult](s)
				now := time.Now()
				if err != nil {
					count("query: " + err.Error())
					continue
				}
				count(checkResult(qr))
				rec.add(0, rec.op(), "controlplane", "query", q.sent, now, 1)
				mu.Lock()
				lat = append(lat, float64(now.Sub(q.due))/1e6)
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		now := time.Now()
		late = append(late, float64(now.Sub(due))/1e6)
		country := mc.rng.Intn(len(mixCountries))
		s := mc.sessions[country]
		k := mc.pick()
		var err error
		switch k {
		case opQuery:
			if err = mc.sendQuery(s); err == nil {
				pending[country] <- sentQuery{due, now}
				continue // counted when its result is read
			}
		case opRegister:
			err = mc.toggle(s)
		case opLogin:
			err = mc.churn(country)
		}
		rec.add(0, rec.op(), "controlplane", k.String(), now, time.Now(), 1)
		if err != nil {
			count(k.String() + ": " + err.Error())
		} else {
			count("")
		}
	}
	for _, ch := range pending {
		close(ch)
	}
	wg.Wait()
	return lat, late
}
