// Package simnet is the simulated network the five target systems run on.
//
// Every send and RPC carries an explicit fault-site ID, so the network
// boundary is where external-exception fault sites live — the same place
// the paper injects SocketException/IOException for its JVM targets. The
// injection hook fires on the sender's side before the message leaves, and
// an injected fault surfaces to the caller as an ordinary error from the
// environment.
package simnet

import (
	"fmt"

	"anduril/internal/des"
	"anduril/internal/inject"
	"anduril/internal/logging"
)

// Message is a one-way datagram between named nodes.
type Message struct {
	From    string
	To      string
	Type    string
	Payload interface{}
}

// Handler processes an incoming message on the receiving node. respond is
// non-nil only for RPC-style calls; calling it completes the caller's
// continuation.
type Handler func(msg Message, respond func(payload interface{}, err error))

type endpoint struct {
	actor   string
	handler Handler
}

// Net is an in-memory network with configurable latency, per-node
// down-state, and pairwise partitions.
type Net struct {
	sim *des.Sim
	fi  *inject.Runtime
	log *logging.Log

	minLat, maxLat des.Time
	handlers       map[string]map[string]endpoint
	down           map[string]bool
	partitioned    map[[2]string]bool

	// chans and eintr hold the pseudo-site handles of the env and partial
	// sweeps, resolved in fi's table once per channel and per send site:
	// a message looks up one record, not one ID per swept site. Handles
	// outlive Reset, as fi's table does.
	chans map[[2]string]*channel
	eintr map[string]inject.PseudoHandle

	// sendPool and replyPool recycle the per-delivery state of one-way
	// messages and RPC responses. Both object kinds are referenced only
	// by the event that delivers them (fields are copied out before the
	// object returns to the pool), so reuse is safe; call objects are
	// NOT reused within a run because handlers may retain their respond
	// function indefinitely (e.g. a leader parking responses until
	// commit). They come from calls, an arena in chunks of callChunk of
	// which the run has handed out the first nextCall: Reset takes them
	// all back at once, when nothing of the run is left to hold one.
	sendPool  []*sendEvent
	replyPool []*reply
	calls     [][]call
	nextCall  int

	// OnCrash executes a node-crash environment fault: take the node
	// down, tear down its runtime state, and restart it with recovered
	// state after restartAfter elapses. cluster.NewEnv wires it to the
	// registered node controls; a net that arms env/crash needs it set.
	OnCrash func(node string, restartAfter des.Time)
}

// New creates a network. Latency of each delivery is uniform in
// [minLat, maxLat), drawn from the simulation's deterministic RNG.
func New(sim *des.Sim, fi *inject.Runtime, log *logging.Log, minLat, maxLat des.Time) *Net {
	if maxLat < minLat {
		maxLat = minLat
	}
	return &Net{
		sim: sim, fi: fi, log: log,
		minLat: minLat, maxLat: maxLat,
		handlers:    make(map[string]map[string]endpoint),
		down:        make(map[string]bool),
		partitioned: make(map[[2]string]bool),
		chans:       make(map[[2]string]*channel),
		eintr:       make(map[string]inject.PseudoHandle),
	}
}

// Reset returns the network to the state New built it in — no handlers,
// every node up, no partitions — for another run on the same simulation,
// runtime and logger, OnCrash as wired. The per-node handler tables are
// emptied in place (an empty table answers like a missing one), and the
// pseudo-site handles and the delivery pools are kept: neither holds
// anything of the finished run.
func (n *Net) Reset() {
	for _, m := range n.handlers {
		clear(m)
	}
	clear(n.down)
	clear(n.partitioned)
	for i := 0; i < n.nextCall; i++ {
		c := &n.calls[i/callChunk][i%callChunk]
		*c = call{respondFn: c.respondFn} // bound to c itself: as good as new
	}
	n.nextCall = 0
}

const callChunk = 32

// newCall hands out the next call of the arena, zero but for a respondFn
// an earlier run may have left bound.
func (n *Net) newCall() *call {
	i := n.nextCall
	n.nextCall++
	if i/callChunk == len(n.calls) {
		n.calls = append(n.calls, make([]call, callChunk))
	}
	return &n.calls[i/callChunk][i%callChunk]
}

// channel is the record of one directed (from, to) channel: the handles
// of every pseudo-site a message on it reaches, each family's resolved the
// first time a message takes the channel with the family active. A node's
// message to itself crosses no link, so its crashTo and partition are zero
// handles, which reach nothing.
type channel struct {
	env, partial bool // whether the family's handles are resolved

	crashFrom, crashTo, partition, drop, delay inject.PseudoHandle
	dup                                        inject.PseudoHandle
}

// sweep returns the record of the (from, to) channel when a pseudo-site
// sweep will read it, with the active families' handles resolved; nil on
// a run with neither env nor partial faults active.
func (n *Net) sweep(from, to string) *channel {
	env, partial := n.fi.Active(inject.EnvFaults), n.fi.Active(inject.PartialFaults)
	if !env && !partial {
		return nil
	}
	key := [2]string{from, to}
	ch := n.chans[key]
	if ch == nil {
		ch = new(channel)
		n.chans[key] = ch
	}
	if env && !ch.env {
		ch.env = true
		ch.crashFrom = n.pseudo(inject.EnvCrash, from, "")
		ch.drop = n.pseudo(inject.EnvDrop, from, to)
		ch.delay = n.pseudo(inject.EnvDelay, from, to)
		if to != from {
			ch.crashTo = n.pseudo(inject.EnvCrash, to, "")
			ch.partition = n.pseudo(inject.EnvPartition, from, to)
		}
	}
	if partial && !ch.partial {
		ch.partial = true
		ch.dup = n.pseudo(inject.PartialDupDeliver, from, to)
	}
	return ch
}

// pseudo resolves the class's pseudo-site over the given operands.
func (n *Net) pseudo(class inject.PseudoClass, subject, peer string) inject.PseudoHandle {
	return n.fi.Pseudo(inject.PseudoSiteID(class, subject, peer))
}

// Handle registers a handler for messages of msgType addressed to node.
// The handler runs on the given actor (thread) name.
func (n *Net) Handle(node, msgType, actor string, h Handler) {
	m := n.handlers[node]
	if m == nil {
		m = make(map[string]endpoint)
		n.handlers[node] = m
	}
	m[msgType] = endpoint{actor: actor, handler: h}
}

// SetDown marks a node as unreachable (connection errors for senders).
// Bringing it back deletes its entry, as a Partition heal does, so a map
// with nothing down is empty and reachability and the three delivery
// legs (a send, a call's request, its response) skip probing it.
func (n *Net) SetDown(node string, down bool) {
	if !down {
		delete(n.down, node)
		return
	}
	n.down[node] = true
}

// Partition cuts (or restores) connectivity between a pair of nodes.
// Healing deletes the pair's entries rather than storing false, so long
// chaos runs with many cut/heal cycles don't grow the map unboundedly.
func (n *Net) Partition(a, b string, cut bool) {
	if !cut {
		delete(n.partitioned, [2]string{a, b})
		delete(n.partitioned, [2]string{b, a})
		return
	}
	n.partitioned[[2]string{a, b}] = true
	n.partitioned[[2]string{b, a}] = true
}

// Partitions returns how many directed pair entries are currently cut —
// exposed so tests can assert heals fully retire their entries.
func (n *Net) Partitions() int { return len(n.partitioned) }

func (n *Net) latency() des.Time {
	return n.minLat + n.sim.Jitter(n.maxLat-n.minLat+1)
}

// Shared error values for environment-level connection failures. They are
// allocated once and must be treated as immutable by callers (errors.Is /
// inject.AsFault inspection only) — the message hot path returns them on
// every unreachable peer, so a per-call allocation would dominate chaos
// runs with long-lived partitions.
var (
	errPeerDown    = &inject.Fault{Kind: inject.Connection, Site: "env.net.down"}
	errPartitioned = &inject.Fault{Kind: inject.Connection, Site: "env.net.partition"}
	errRPCTimeout  = &inject.Fault{Kind: inject.Timeout, Site: "env.net.rpc-timeout"}
)

// reachability returns a connection-level error if to is unreachable.
func (n *Net) reachability(from, to string) error {
	if len(n.down) != 0 && n.down[to] {
		return errPeerDown
	}
	if len(n.partitioned) != 0 && n.partitioned[[2]string{from, to}] {
		return errPartitioned
	}
	return nil
}

// applyEnv reaches every environment pseudo-site relevant to one
// message on channel ch, in a fixed order — crash(from), crash(to),
// partition(pair), drop(channel), delay(channel) — so env occurrences are
// measured against a deterministic per-run event counter (one tick per
// message per site). It executes whichever env fault the plan injects and
// reports the message-level effect: drop the message silently, or add
// extra delivery latency. Crash and partition effects are not returned;
// they land in the down/partitioned state that reachability reads next.
func (n *Net) applyEnv(ch *channel) (drop bool, extra des.Time) {
	if !n.fi.Active(inject.EnvFaults) {
		// Every reach below would be a no-op; skip the sweep entirely on
		// site-only runs.
		return false, 0
	}
	if f, ok := n.fi.ReachPseudoAt(ch.crashFrom, 0); ok {
		n.crashNode(f)
		return true, 0 // the sender died mid-send; the message is lost with it
	}
	if f, ok := n.fi.ReachPseudoAt(ch.crashTo, 0); ok {
		n.crashNode(f) // reachability sees the receiver down
	}
	if f, ok := n.fi.ReachPseudoAt(ch.partition, 0); ok {
		n.cutPair(f) // reachability sees the fresh cut
	}
	if f, ok := n.fi.ReachPseudoAt(ch.drop, 0); ok {
		n.logMarker(f)
		return true, 0
	}
	if f, ok := n.fi.ReachPseudoAt(ch.delay, 0); ok {
		n.logMarker(f)
		return false, f.Duration
	}
	return false, 0
}

// applyPartial reaches the partial pseudo-sites relevant to one
// dispatched message on channel ch, in a fixed order — eintr(site), then
// dup-deliver(channel) — so partial occurrences are measured against a
// deterministic per-run event counter, like the env sweep above. It
// runs only for messages that actually dispatch (past the env drop,
// reachability and handler checks), and reports the message-level
// effect: a sender-side InterruptedError (the message is still
// delivered — the bytes were already on the wire), or a second delivery
// dupAfter later (zero: none).
func (n *Net) applyPartial(site string, ch *channel) (err error, dupAfter des.Time) {
	if !n.fi.Active(inject.PartialFaults) {
		return nil, 0
	}
	eintr, ok := n.eintr[site]
	if !ok {
		eintr = n.pseudo(inject.PartialEINTR, site, "")
		n.eintr[site] = eintr
	}
	if f, ok := n.fi.ReachPseudoAt(eintr, 0); ok {
		n.logMarker(f)
		return &inject.Fault{Kind: f.Kind, Site: eintr.Site(), Occurrence: f.Occurrence}, 0
	}
	if f, ok := n.fi.ReachPseudoAt(ch.dup, 0); ok {
		n.logMarker(f)
		return nil, f.Duration
	}
	return nil, 0
}

// logMarker emits the injection marker line for an executed pseudo-site
// fault. The text comes from the inject package's table so the
// explorer's marker-match ranking sees exactly what the network logs.
func (n *Net) logMarker(f inject.PseudoFault) { n.log.Warnf("%s", f.Marker()) }

// crashNode executes an injected crash fault through OnCrash.
func (n *Net) crashNode(f inject.PseudoFault) {
	n.logMarker(f)
	n.OnCrash(f.Subject, f.Duration)
}

// cutPair executes an injected partition fault: a symmetric cut that
// heals itself after the fault's duration.
func (n *Net) cutPair(f inject.PseudoFault) {
	n.logMarker(f)
	n.Partition(f.Subject, f.Peer, true)
	n.sim.Schedule("env-heal", f.Duration, func() {
		n.Partition(f.Subject, f.Peer, false)
		n.log.Infof("env: partition %s/%s healed", f.Subject, f.Peer)
	})
}

// sendEvent carries one in-flight one-way message through the event
// queue. Pooled: the delivery copies its fields out and releases the
// object before dispatch, so steady-state sends allocate nothing.
type sendEvent struct {
	n   *Net
	msg Message
	ep  endpoint
}

func (n *Net) getSend(msg Message, ep endpoint) *sendEvent {
	if k := len(n.sendPool); k > 0 {
		d := n.sendPool[k-1]
		n.sendPool = n.sendPool[:k-1]
		d.msg, d.ep = msg, ep
		return d
	}
	return &sendEvent{n: n, msg: msg, ep: ep}
}

// runSend delivers a one-way message (top-level so the delivery event
// carries a pooled *sendEvent instead of a fresh closure).
func runSend(x interface{}) {
	d := x.(*sendEvent)
	n, msg, ep := d.n, d.msg, d.ep
	d.msg, d.ep = Message{}, endpoint{} // drop payload references
	n.sendPool = append(n.sendPool, d)
	if len(n.down) != 0 && n.down[msg.To] {
		return
	}
	ep.handler(msg, nil)
}

// Send transmits a one-way message. site is the sender-side fault site; an
// injected fault (or an unreachable peer) is returned synchronously, and the
// message is not delivered. Environment faults differ: a dropped message
// (or one lost to the sender's own crash) returns nil — the sender
// believes it sent.
func (n *Net) Send(site string, msg Message) error {
	if err := n.fi.Reach(site, inject.Socket); err != nil {
		return err
	}
	ch := n.sweep(msg.From, msg.To)
	drop, extra := n.applyEnv(ch)
	if drop {
		return nil
	}
	if err := n.reachability(msg.From, msg.To); err != nil {
		return err
	}
	ep, ok := n.handlers[msg.To][msg.Type]
	if !ok {
		return fmt.Errorf("simnet: %s has no handler for %s", msg.To, msg.Type)
	}
	perr, dupAfter := n.applyPartial(site, ch)
	// The delivery runs under a child path node labelled with the send
	// site — the call-tree edge of path addressing. PathExtend returns 0
	// (the root, what PostArg would inherit) when tracking is off.
	n.sim.PostArgPath(ep.actor, n.latency()+extra, runSend, n.getSend(msg, ep), n.sim.PathExtend(site))
	if dupAfter > 0 {
		// Duplicated delivery: the same message arrives a second time at a
		// fixed virtual-time offset after its first copy is dispatched.
		n.sim.PostArgPath(ep.actor, n.latency()+extra+dupAfter, runSend, n.getSend(msg, ep), n.sim.PathExtend(site))
	}
	// An eintr fault surfaces to the sender even though the message was
	// delivered: the bytes were already on the wire when the interrupt hit.
	return perr
}

// call is the state of one in-flight RPC. Each Call of a run takes its own
// from the arena (handlers may retain respondFn arbitrarily long, so reuse
// within the run would be unsound), and all of its events go through shared
// top-level functions, so an RPC allocates nothing once the arena has grown
// to the run's size and its respond functions are bound.
type call struct {
	n         *Net
	caller    string
	msg       Message
	ep        endpoint
	cont      func(payload interface{}, err error)
	respondFn func(payload interface{}, err error)
	timer     des.Timer
	path      int32 // caller's path node at Call time; replies restore it
	done      bool

	// payload/err hold the outcome for the synchronous-failure path
	// (injected fault, unreachable peer, missing handler).
	payload interface{}
	err     error
}

// respond is handed to the remote handler; it ships the response back to
// the caller's actor after one more latency draw.
func (c *call) respond(payload interface{}, err error) {
	n := c.n
	if len(n.down) != 0 && n.down[c.msg.To] {
		return // responder went down before responding; caller times out
	}
	var r *reply
	if k := len(n.replyPool); k > 0 {
		r = n.replyPool[k-1]
		n.replyPool = n.replyPool[:k-1]
		r.c, r.payload, r.err = c, payload, err
	} else {
		r = &reply{c: c, payload: payload, err: err}
	}
	// The reply resumes the caller's continuation under the caller's own
	// path node — an RPC return pops the call edge rather than extending
	// it, so path depth tracks RPC nesting, not total message count.
	n.sim.PostArgPath(c.caller, n.latency(), runReply, r, c.path)
}

// reply is one response in flight from responder to caller. Pooled: each
// respond call gets its own reply so two racing responses each deliver
// their own payload, exactly as the closure-per-respond code did.
type reply struct {
	c       *call
	payload interface{}
	err     error
}

func runReply(x interface{}) {
	r := x.(*reply)
	c, payload, err := r.c, r.payload, r.err
	n := c.n
	r.c, r.payload, r.err = nil, nil, nil
	n.replyPool = append(n.replyPool, r)
	if c.done {
		return
	}
	c.done = true
	c.timer.Cancel()
	c.cont(payload, err)
}

// runCallFinish completes an RPC that failed synchronously on the caller's
// side (the error still arrives as its own event, like any response).
func runCallFinish(x interface{}) {
	c := x.(*call)
	c.cont(c.payload, c.err)
}

// runCallTimeout fires when no response arrived within the RPC timeout.
func runCallTimeout(x interface{}) {
	c := x.(*call)
	if c.done {
		return
	}
	c.done = true
	c.cont(nil, errRPCTimeout)
}

// runCallRequest delivers the request leg to the remote handler.
func runCallRequest(x interface{}) {
	c := x.(*call)
	if len(c.n.down) != 0 && c.n.down[c.msg.To] {
		return // request lost; caller times out
	}
	c.ep.handler(c.msg, c.respondFn)
}

// Call performs an RPC: the remote handler's respond() resumes the caller's
// continuation cont on the caller's current actor. If no response arrives
// within timeout, cont runs with a TimeoutError. site is the sender-side
// fault site. cont runs exactly once.
func (n *Net) Call(site string, msg Message, timeout des.Time, cont func(payload interface{}, err error)) {
	caller := n.sim.Current()
	if caller == "" {
		caller = msg.From
	}
	c := n.newCall()
	c.n, c.caller, c.msg, c.cont, c.path = n, caller, msg, cont, n.sim.CurPath()

	if err := n.fi.Reach(site, inject.Socket); err != nil {
		c.err = err
		n.sim.PostArg(caller, 0, runCallFinish, c)
		return
	}
	ch := n.sweep(msg.From, msg.To)
	drop, extra := n.applyEnv(ch)
	if err := n.reachability(msg.From, msg.To); err != nil {
		c.err = err
		n.sim.PostArg(caller, 0, runCallFinish, c)
		return
	}
	ep, ok := n.handlers[msg.To][msg.Type]
	if !ok {
		c.err = fmt.Errorf("simnet: %s has no handler for %s", msg.To, msg.Type)
		n.sim.PostArg(caller, 0, runCallFinish, c)
		return
	}
	c.ep = ep

	if timeout > 0 {
		c.timer = n.sim.ScheduleArg(caller, timeout, runCallTimeout, c)
	}
	if drop {
		return // request lost in the environment; caller times out
	}
	perr, dupAfter := n.applyPartial(site, ch)
	if perr != nil {
		// eintr: the request still reaches the handler, but the caller
		// fails with InterruptedError now. Marking the call done drops the
		// real response (and the timeout) on arrival, so cont still runs
		// exactly once.
		c.done = true
		c.err = perr
		n.sim.PostArg(caller, 0, runCallFinish, c)
	}
	if c.respondFn == nil {
		c.respondFn = c.respond
	}
	// The request leg, like a one-way send, extends the call tree by one
	// edge labelled with the RPC's fault site.
	n.sim.PostArgPath(ep.actor, n.latency()+extra, runCallRequest, c, n.sim.PathExtend(site))
	if dupAfter > 0 {
		// Duplicated delivery: the handler runs twice for one logical
		// request; the second response is dropped by the done flag.
		n.sim.PostArgPath(ep.actor, n.latency()+extra+dupAfter, runCallRequest, c, n.sim.PathExtend(site))
	}
}
