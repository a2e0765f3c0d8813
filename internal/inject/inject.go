// Package inject is the fault-injection runtime compiled into the target
// systems — the Go analog of the FIR instrumentation in Figure 3 of the
// paper. A fault site in a target system is an explicit hook:
//
//	if err := env.FI.Reach("dfs.datanode.receiveBlock.write", inject.IO); err != nil {
//		// handle like a real I/O failure
//	}
//
// Reach plays both instrumented roles at once: traceSite (record the
// dynamic occurrence, thread, and logical log position of the site) and
// throwIfEnabled (consult the round's injection plan and return a Fault
// error when the explorer wants one injected here).
//
// Faults are Go errors rather than thrown exceptions; the Kind mirrors the
// exception types of Table 5 (IOException, SocketException, ...).
//
// # Stable site-ID contract
//
// The site ID passed to Reach is a constant string literal and is the
// site's identity everywhere: the static analyzer extracts the same
// literal from the source (the causal graph's fault-site nodes carry it),
// the explorer keys its priority tables, trace events, and injection
// plans by it, and serialized analysis artifacts persist it across
// processes. Site IDs must therefore be unique within a target system and
// stable across runs and recompilations — renaming one invalidates saved
// artifacts, reproduction scripts, and golden traces that mention it. By
// convention an ID is a dotted path "<system>.<component>.<operation>"
// (e.g. "dfs.datanode.receiveBlock.write"), lowercase, never computed at
// runtime.
//
// # The one site grammar
//
// Every injectable thing is addressed by a site ID of one of three shapes,
// told apart by their first segment and never colliding:
//
//	<system>.<component>.<operation>   an error-return site, reached through Reach
//	<family>/<class>/<operands>        a pseudo-site (env/... or partial/...), one row of
//	                                   the table in pseudo.go, reached through ReachPseudo
//	pair/<siteA>+<siteB>               two of the above combined (pair.go)
//
// and a dynamic instance of any of them by (site, occurrence) or, under
// path addressing, by the canonical call-path string of path.go — which a
// run matches by its chain hash (PathKey) and renders only where it leaves
// the process. Pseudo-sites and path addressing are optional Features of a
// run: off by default, switched on by the harness or by the plan's own
// instances.
package inject

import (
	"errors"
	"slices"
	"time"

	"anduril/internal/des"
)

// Kind is the class of fault an injection produces, mirroring the exception
// types the paper injects.
type Kind string

// Fault kinds observed in the paper's 22-failure dataset.
const (
	IO           Kind = "IOError"
	Timeout      Kind = "TimeoutError"
	Socket       Kind = "SocketError"
	FileNotFound Kind = "FileNotFoundError"
	Interrupted  Kind = "InterruptedError"
	Connection   Kind = "ConnectionError"
	Checksum     Kind = "ChecksumError"
	State        Kind = "IllegalStateError"
)

// Fault is the error value injected at a fault site.
type Fault struct {
	Kind       Kind
	Site       string
	Occurrence int // 1-based dynamic occurrence of the site in this run
}

// Error renders the fault the way the production system's exception would
// appear in a log: the kind and the faulting frame, but nothing about the
// dynamic occurrence (timing never shows up in real logs).
func (f *Fault) Error() string {
	return string(f.Kind) + " at " + f.Site
}

// Is lets errors.Is match any *Fault against a prototype with the same
// Kind (Site empty in the target matches all sites).
func (f *Fault) Is(target error) bool {
	t, ok := target.(*Fault)
	if !ok {
		return false
	}
	return (t.Kind == "" || t.Kind == f.Kind) && (t.Site == "" || t.Site == f.Site)
}

// KindErr returns a prototype error for errors.Is matching by kind. The
// prototype of a declared Kind is shared and must not be modified.
func KindErr(k Kind) error {
	if f, ok := kindProtos[k]; ok {
		return f
	}
	return &Fault{Kind: k}
}

// kindProtos holds one read-only prototype per declared Kind, so the
// errors.Is checks a target makes on every failed call allocate nothing.
var kindProtos = func() map[Kind]*Fault {
	m := map[Kind]*Fault{}
	for _, k := range []Kind{IO, Timeout, Socket, FileNotFound, Interrupted, Connection, Checksum, State,
		CrashFault, PartitionFault, MsgDropFault, MsgDelayFault, ShortWrite, NoSpace, TornRename, DupDeliver} {
		m[k] = &Fault{Kind: k}
	}
	return m
}()

// AsFault extracts the *Fault from an error chain, if present.
func AsFault(err error) (*Fault, bool) {
	var f *Fault
	if errors.As(err, &f) {
		return f, true
	}
	return nil, false
}

// TraceEvent records one dynamic reach of a fault site. Under path
// addressing it carries the reach's compact identity, not its canonical
// string — a kept trace holds every reach of a run and almost none of
// their strings is ever read; Runtime.PathOf renders one on demand.
type TraceEvent struct {
	Site       string
	Occurrence int      // 1-based per-site occurrence index
	Addr       PathKey  // path identity (path addressing only, else zero)
	Thread     string   // actor executing when the site was reached
	LogPos     int      // logical time: log records emitted before the reach
	Time       des.Time // virtual time of the reach
	Injected   bool     // whether this reach produced a fault
	reach      uint32   // the site's index in this run's first-reach order (see SiteIndex)
	Amp        int      // observed amplitude (partial pseudo-sites only)
}

// SiteIndex is the event's site as its index in its run's first-reach
// order: Runtime.ReachedSite(ev.SiteIndex()) == ev.Site, and the indices of
// a run are 0..Runtime.SitesReached()-1, so a reader groups a kept trace by
// site with a counting sort instead of a map keyed by name.
func (ev *TraceEvent) SiteIndex() int { return int(ev.reach) }

// Instance names a dynamic fault candidate f_{i,j}: site i, occurrence j.
// Under path addressing, Path carries the candidate's canonical PathAddr
// string and takes precedence over the occurrence when matching; for pair
// pseudo-sites it carries the two member references (see pair.go). Path
// is empty in the default occurrence mode, so existing scripts, plans and
// checkpoints are unchanged.
type Instance struct {
	Site       string
	Occurrence int
	Path       string

	// key is the chain hash of Path when the instance was built from a
	// live reach (Keyed); zero for an instance off the wire, whose Path
	// the plan folds itself when it is armed.
	key uint64
}

// Keyed returns inst carrying the chain hash of its Path — PathKey.Hash of
// the reach Path was rendered from — so arming it into a plan need not
// parse the string. The hash is only a lookup key: a member fires only for
// a reach whose rendered path equals its Path, so a wrong key can make a
// member unreachable but never fire it at another address.
func (inst Instance) Keyed(hash uint64) Instance {
	inst.key = hash
	return inst
}

// Features is a set of optional runtime mechanisms. Each is off by default
// so that a run which does not use it counts, traces and allocates exactly
// what it did before the mechanism existed: site-only occurrence-mode runs
// stay byte-identical.
type Features uint8

const (
	// EnvFaults makes the env/... pseudo-sites reachable: the network
	// counts (and can inject at) crash/partition/drop/delay instances.
	EnvFaults Features = 1 << iota
	// PartialFaults makes the partial/... pseudo-sites reachable: the disk
	// and network count (and can inject at) short-write, enospc-after,
	// torn-rename, eintr and dup-deliver instances.
	PartialFaults
	// PathAddressing assigns every reach its PathKey, folded from the call
	// tree behind Runtime.Paths, and hands it to the plan's Decide.
	PathAddressing
)

// features reports what an instance needs of the run that replays it.
func (inst Instance) features() Features {
	var f Features
	switch {
	case IsEnvSite(inst.Site):
		f = EnvFaults
	case IsPartialSite(inst.Site):
		f = PartialFaults
	}
	if inst.Path != "" {
		f |= PathAddressing
	}
	return f
}

// Runtime is the per-run injection state. The harness wires LogPos, Thread
// and Now to the run's logger and simulation before the workload starts.
type Runtime struct {
	LogPos func() int
	Thread func() string
	Now    func() des.Time

	// Paths supplies call-path context under path addressing: the
	// dispatcher's current node, its chain hash, and its rendering. Nil
	// means every reach is at root context.
	Paths PathTree

	plan *Plan

	sites      map[string]*siteRec
	reached    []*siteRec       // the records this run has counted, in first-reach order
	armed      []*siteRec       // the records of the plan's sites, marked armed
	pathCounts map[uint64]int32 // per-(path context, site) occurrence counters: node << 32 | site id
	trace      [][]TraceEvent   // the kept trace, TraceChunk events a chunk: growing copies nothing
	injected   []TraceEvent
	budget     int
	decisions  int
	decNanos   int64

	// KeepTrace controls whether every reach is recorded. cluster.Run sets
	// it exactly when the run has no plan: the free run keeps the full
	// trace (the explorer needs the instance timeline), injection rounds
	// keep none, as §7 does.
	KeepTrace bool

	// features are the active Features: the plan's own plus whatever
	// the harness Enables.
	features Features
}

// NewRuntime creates an injection runtime executing the given plan
// (nil means never inject — the free run of workflow step 1). The
// injection budget is the plan's: 1 per round, as in the paper, unless a
// candidate has several members. The run starts from the plan Reset, so one
// plan can be executed again — a round's retry, a script replayed twice.
func NewRuntime(plan *Plan) *Runtime {
	r := &Runtime{sites: make(map[string]*siteRec)}
	r.Reset(plan)
	return r
}

// Reset prepares the runtime for another run under plan, as NewRuntime
// would build it, keeping its wiring (LogPos, Thread, Now, Paths) and the
// memory of its tables: a site's record stays in the table at count zero,
// which everything that reads the table takes for absent, and the kept
// trace's chunks stay allocated, empty. The table holds every site any
// earlier run reached — of any target, for a runtime a search borrowed — so
// Reset zeroes only the records the last run counted. KeepTrace is back at
// its default.
func (r *Runtime) Reset(plan *Plan) {
	for _, rec := range r.reached {
		rec.count = 0
	}
	for _, rec := range r.armed {
		rec.armed = false
	}
	clear(r.pathCounts)
	*r = Runtime{
		LogPos: r.LogPos, Thread: r.Thread, Now: r.Now, Paths: r.Paths,
		plan: plan, sites: r.sites, reached: r.reached[:0], armed: r.armed[:0], pathCounts: r.pathCounts,
		trace: r.trace[:0], injected: r.injected[:0], KeepTrace: true,
	}
	if plan != nil {
		plan.Reset()
		r.budget, r.features = plan.Budget(), plan.Features()
		for i := range plan.members {
			// A member matches only reaches of its own site (see Plan.add).
			if rec := r.rec(plan.members[i].inst.Site); !rec.armed {
				rec.armed = true
				r.armed = append(r.armed, rec)
			}
		}
	}
}

// rec is site's record in the table, added at count zero if the site has
// none yet.
func (r *Runtime) rec(site string) *siteRec {
	rec := r.sites[site]
	if rec == nil {
		rec = &siteRec{site: site, id: uint32(len(r.sites)), labelHash: des.LabelHash(site)}
		r.sites[site] = rec
	}
	return rec
}

// Enable switches features on for the run (there is no switching off: a
// feature changes what is counted, so it must hold for the whole run).
// The harness enables what a free run or a mixed window needs; a plan's
// own Features are active from the start.
func (r *Runtime) Enable(f Features) { r.features |= f }

// Active reports whether every feature in f is on this run. The disk and
// network consult it before their per-operation pseudo-site sweeps, so a
// run without the feature builds no pseudo-site ID and counts nothing.
func (r *Runtime) Active(f Features) bool { return r.features&f == f }

// siteRec is one site's dynamic state: its occurrence counter, whether a
// member of the run's plan is at the site, and, for a pseudo-site, the
// fault template its ID parsed to (zero Class otherwise). Reach runs on
// every instrumented call in every simulated run, so everything per-site
// shares a single map entry probed once — and a pseudo-site's ID is parsed
// once, not once per message. A count of zero is a site this run has not
// reached: a record a Reset left behind, or made to mark the site armed.
//
// The record also holds what path addressing needs of the name, resolved
// once: id, its creation index in the table (which never shrinks, so the
// id is the site's for the runtime's life), keys the per-context
// occurrence counters, and labelHash is the site's des.LabelHash.
type siteRec struct {
	site      string
	count     int
	armed     bool
	id        uint32
	reach     uint32 // the record's index in reached (valid while count > 0)
	labelHash uint64
	pseudo    PseudoFault
}

// address computes the PathKey of the current reach of a site: a rooted
// reach is addressed by its per-run occurrence at the root, any other by
// the executing context's node and the site's occurrence within it, which
// this advances.
func (r *Runtime) address(rec *siteRec, occ int, rooted bool) PathKey {
	if rooted {
		return PathKey{Hash: des.PathFoldHash(des.PathRoot, rec.labelHash, occ), N: int32(occ)}
	}
	at, hash := PathKey{}, des.PathRoot
	if r.Paths != nil {
		at.Node = r.Paths.CurPath()
		hash = r.Paths.PathHash(at.Node)
	}
	if r.pathCounts == nil {
		r.pathCounts = make(map[uint64]int32)
	}
	k := uint64(uint32(at.Node))<<32 | uint64(rec.id)
	at.N = r.pathCounts[k] + 1
	r.pathCounts[k] = at.N
	at.Hash = des.PathFoldHash(hash, rec.labelHash, int(at.N))
	return at
}

// PathOf renders the canonical path string of a reach of this run from its
// recorded identity ("" for the zero PathKey of occurrence mode). Nothing
// else allocates a reach's string (a plan confirming a hash hit renders
// into its scratch buffer), so the callers are the boundaries where one
// leaves the process: a round's reported injection, a candidate entering
// a window or a trace.
func (r *Runtime) PathOf(site string, at PathKey) string {
	if at.N == 0 {
		return ""
	}
	return string(appendPath(nil, r.Paths, site, at))
}

// decide consults the plan for one reach. Every fault class — error
// sites and env pseudo-sites alike — shares this single gate, so once
// the round's injection budget is spent no class consults the plan
// again: one Decide stream per round, short-circuited uniformly. Every
// reach before then counts as a decision, but only one at an armed site
// calls Decide: a member matches only reaches of its own site, so Decide
// answers false everywhere else.
func (r *Runtime) decide(rec *siteRec, occ int, at PathKey) bool {
	if r.plan == nil || len(r.injected) >= r.budget {
		return false
	}
	r.decisions++
	if r.decisions%decideSample != 1 {
		return rec.armed && r.plan.Decide(rec.site, occ, at, r.Paths)
	}
	start := time.Now()
	inject := rec.armed && r.plan.Decide(rec.site, occ, at, r.Paths)
	r.decNanos += time.Since(start).Nanoseconds()
	return inject
}

// decideSample is how many decisions share one timed one. The count of
// decisions is exact; their latency is a statistic, and reading the wall
// clock twice around every one of them cost more than most decisions do.
const decideSample = 16

// record stamps and stores the trace event for one reach. amp is the
// observed amplitude of a partial pseudo-site's perturbed call (its
// payload length; the explorer calibrates candidate enumeration from it).
func (r *Runtime) record(rec *siteRec, occ int, at PathKey, inject bool, amp int) {
	ev := TraceEvent{Site: rec.site, Occurrence: occ, Addr: at, Injected: inject, reach: rec.reach, Amp: amp}
	if r.LogPos != nil {
		ev.LogPos = r.LogPos()
	}
	if r.Thread != nil {
		ev.Thread = r.Thread()
	}
	if r.Now != nil {
		ev.Time = r.Now()
	}
	if r.KeepTrace {
		n := len(r.trace)
		if n == 0 || len(r.trace[n-1]) == TraceChunk {
			if n < cap(r.trace) && r.trace[:n+1][n] != nil {
				r.trace = r.trace[:n+1] // a chunk an earlier run left
				r.trace[n] = r.trace[n][:0]
			} else {
				r.trace = append(r.trace, make([]TraceEvent, 0, TraceChunk))
			}
			n++
		}
		r.trace[n-1] = append(r.trace[n-1], ev)
	}
	if inject {
		r.injected = append(r.injected, ev)
	}
}

// reach is the one body behind Reach and ReachPseudoAt: count the
// occurrence, address it, consult the plan, record. A rooted reach (every
// pseudo-site) has no call-path context — its occurrence is already a
// deterministic per-run event index — so its path form is "site#occ".
func (r *Runtime) reach(rec *siteRec, rooted bool, amp int) (occ int, inject bool) {
	if rec.count == 0 {
		rec.reach = uint32(len(r.reached))
		r.reached = append(r.reached, rec)
	}
	rec.count++
	occ = rec.count

	var at PathKey
	if r.Active(PathAddressing) {
		at = r.address(rec, occ, rooted)
	}
	inject = r.decide(rec, occ, at)

	if r.KeepTrace || inject {
		r.record(rec, occ, at, inject, amp)
	}
	return occ, inject
}

// Reach is the instrumented hook at a fault site. It records the dynamic
// occurrence and returns a non-nil *Fault if the plan injects here.
func (r *Runtime) Reach(site string, kind Kind) error {
	if occ, inject := r.reach(r.rec(site), false, 0); inject {
		return &Fault{Kind: kind, Site: site, Occurrence: occ}
	}
	return nil
}

// PseudoHandle is a pseudo-site resolved in one runtime's table: its
// record, with the ID parsed. The zero handle stands for a malformed ID.
// A handle stays valid for the runtime's life, across Reset — the table
// never drops a record — so the network and the disk resolve each
// pseudo-site they sweep once and reach it by handle after that.
type PseudoHandle struct{ rec *siteRec }

// Site is the handle's pseudo-site ID ("" for a malformed one).
func (h PseudoHandle) Site() string {
	if h.rec == nil {
		return ""
	}
	return h.rec.site
}

// Pseudo resolves a pseudo-site ID to its handle in this runtime, parsing
// the ID the first time the table meets it. It counts nothing.
func (r *Runtime) Pseudo(site string) PseudoHandle {
	if rec := r.sites[site]; rec != nil && rec.pseudo.Class != "" {
		return PseudoHandle{rec}
	}
	f, ok := ParsePseudo(site)
	if !ok {
		return PseudoHandle{}
	}
	rec := r.rec(site)
	rec.pseudo = f
	return PseudoHandle{rec}
}

// ReachPseudoAt is the pseudo-site analog of Reach, called by the network
// once per (message, pseudo-site) pair and by the disk once per
// perturbable operation, with a handle this runtime's Pseudo returned.
// amp is the observed amplitude of the operation (payload length for disk
// writes; zero where amplitude is meaningless). It records the dynamic
// occurrence and returns the PseudoFault to execute if the plan injects
// here. When the site's family is not Active for the run (or the handle
// is a malformed ID's) it is a no-op returning false: nothing is counted
// or traced.
func (r *Runtime) ReachPseudoAt(h PseudoHandle, amp int) (PseudoFault, bool) {
	rec := h.rec
	if rec == nil || !r.Active(rec.pseudo.Family) {
		return PseudoFault{}, false
	}
	occ, inject := r.reach(rec, true, amp)
	if !inject {
		return PseudoFault{}, false
	}
	f := rec.pseudo
	f.Occurrence, f.Amp = occ, amp
	return f, true
}

// ReachPseudo reaches a pseudo-site by its ID: ReachPseudoAt of its
// handle.
func (r *Runtime) ReachPseudo(site string, amp int) (PseudoFault, bool) {
	return r.ReachPseudoAt(r.Pseudo(site), amp)
}

// TraceChunk is how many reaches one chunk of a kept trace holds. A free
// run keeps hundreds to thousands of 88-byte events; most of the dataset's
// fit in one or two chunks, and the long ones grow by a chunk, not by a
// doubled copy.
const TraceChunk = 256

// TraceChunks returns the recorded reaches as they are kept: in run order,
// every chunk but the last TraceChunk events long, so reach i is
// TraceChunks()[i/TraceChunk][i%TraceChunk]. Empty if KeepTrace was off.
func (r *Runtime) TraceChunks() [][]TraceEvent { return r.trace }

// Trace returns the recorded reaches as one slice (empty if KeepTrace was
// off): the chunk itself when there is one, a joined copy otherwise.
func (r *Runtime) Trace() []TraceEvent {
	switch len(r.trace) {
	case 0:
		return nil
	case 1:
		return r.trace[0]
	}
	return slices.Concat(r.trace...)
}

// SitesReached is how many sites this run has reached.
func (r *Runtime) SitesReached() int { return len(r.reached) }

// ReachedSite is the site this run reached i-th, counting from 0.
func (r *Runtime) ReachedSite(i int) string { return r.reached[i].site }

// ReachIndex is site's index in this run's first-reach order, false when the
// run has not reached it.
func (r *Runtime) ReachIndex(site string) (int, bool) {
	if rec := r.sites[site]; rec != nil && rec.count > 0 {
		return int(rec.reach), true
	}
	return 0, false
}

// Injected returns the reach at which the round's (first) fault was
// injected, if any.
func (r *Runtime) Injected() (TraceEvent, bool) {
	if len(r.injected) == 0 {
		return TraceEvent{}, false
	}
	return r.injected[0], true
}

// InjectedAll returns every injected reach of the round (more than one
// only when the committed candidate has several members).
func (r *Runtime) InjectedAll() []TraceEvent { return r.injected }

// Counts returns a copy of the per-site dynamic occurrence counts for the
// run. The copy is the caller's to keep: mutating it does not disturb the
// runtime's internal numbering, so subsequent Reach/Decide calls keep
// counting from the true occurrence.
func (r *Runtime) Counts() map[string]int {
	out := make(map[string]int, len(r.reached))
	for _, rec := range r.reached {
		out[rec.site] = rec.count
	}
	return out
}

// Decisions returns how many injection requests the plan was consulted for
// and the total decision latency — the "Inject. Req." and latency columns
// of Table 4. The count is exact; the latency is scaled up from the one
// decision in decideSample that was timed.
func (r *Runtime) Decisions() (count int, total time.Duration) {
	if r.decisions == 0 {
		return 0, 0
	}
	timed := (r.decisions + decideSample - 1) / decideSample
	return r.decisions, time.Duration(r.decNanos * int64(r.decisions) / int64(timed))
}
