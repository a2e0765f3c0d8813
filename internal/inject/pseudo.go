// Pseudo-sites extend the fault space beyond exception-shaped error
// returns to the faults a deployment inflicts on a distributed system:
// environment events (node crash/restart, pairwise partition with a later
// heal, per-message drop or delay) and the errno-level partial failures
// real incidents are rooted in (a write that persists only a prefix, ENOSPC
// midway through an append, a rename torn between source and destination,
// a send interrupted after the bytes left, a message delivered twice).
// Every such fault class is one row of pseudoTable and is addressed
// through a *pseudo-site*, so the explorer's universal currency — the
// (site, occurrence) Instance — covers the whole heterogeneous space with
// no new plan, window, tried-set or checkpoint machinery:
//
//	env/crash/<node>                     crash the node, restart after a duration
//	env/partition/<a>~<b>                cut the pair symmetrically, heal after a duration
//	env/msg-drop/<from>><to>             silently drop one message on the channel
//	env/msg-delay/<from>><to>            delay one message past the receiver's patience
//	partial/disk/short-write/<site>      persist a prefix of the data, then fail
//	partial/disk/enospc-after/<site>     append a prefix, then report no space
//	partial/disk/torn-rename/<site>      copy to destination but keep the source
//	partial/net/eintr/<site>             deliver the message but fail the sender
//	partial/net/dup-deliver/<from>><to>  deliver the same message twice
//
// The occurrence of a pseudo-site is counted against a deterministic
// per-run event counter. The network reaches every env site relevant to a
// message (both endpoints' crash sites, the pair's partition site, the
// channel's drop/delay sites) exactly once per message, in a fixed order,
// so occurrence j of env/crash/zk3 names "the j-th network event touching
// zk3" identically in every run of the same seed; a partial site counts
// the reaches of the operation it wraps (occurrence j of
// partial/disk/short-write/S is the j-th write at disk site S). Durations
// are virtual-time constants fixed per row and partial semantics are
// deterministic functions of the operation's own payload (the short-write
// prefix is half the data), so an Instance alone reconstructs the fault —
// the Zhang et al. realism idea of calibrating amplitude from observed
// fault-free executions, with the observation made exactly at the
// perturbed call.
//
// Pseudo-sites use '/' separators precisely so they can never collide
// with the dotted "<system>.<component>.<operation>" IDs of error-return
// sites (see the stable site-ID contract in inject.go).
package inject

import (
	"fmt"
	"strings"

	"anduril/internal/des"
)

// PseudoClass names a pseudo-site fault class: one row of pseudoTable.
type PseudoClass string

// The environment classes (reached by the network once per message) and
// the partial-failure classes (the disk classes perturb simdisk
// operations, the net classes simnet sends).
const (
	EnvCrash     PseudoClass = "crash"
	EnvPartition PseudoClass = "partition"
	EnvDrop      PseudoClass = "msg-drop"
	EnvDelay     PseudoClass = "msg-delay"

	PartialShortWrite PseudoClass = "short-write"  // disk: prefix persisted, then error
	PartialENOSPC     PseudoClass = "enospc-after" // disk: prefix appended, then no space
	PartialTornRename PseudoClass = "torn-rename"  // disk: destination written, source kept
	PartialEINTR      PseudoClass = "eintr"        // net: delivered, but sender sees EINTR
	PartialDupDeliver PseudoClass = "dup-deliver"  // net: same message delivered twice
)

// Fault kinds recorded at a pseudo-site injection. The error a crash or
// partition surfaces is a ConnectionError from the network layer and a
// duplicated delivery surfaces none; these kinds label the injection
// record itself. eintr reuses the Interrupted kind, matching the errno.
const (
	CrashFault     Kind = "CrashFault"
	PartitionFault Kind = "PartitionFault"
	MsgDropFault   Kind = "MsgDropFault"
	MsgDelayFault  Kind = "MsgDelayFault"
	ShortWrite     Kind = "ShortWriteError"
	NoSpace        Kind = "NoSpaceError"
	TornRename     Kind = "TornRenameError"
	DupDeliver     Kind = "DupDeliverFault"
)

// Virtual-time durations of the stateful classes. They are constants —
// not plan parameters — so a reproduction script (an Instance) fully
// determines the execution:
//
//   - EnvCrashRestartAfter: how long a crashed node stays down before the
//     environment restarts it with recovered state.
//   - EnvPartitionHealAfter: how long a pairwise cut lasts before healing.
//   - EnvDelayBy: the extra delivery latency a delayed message suffers —
//     chosen to exceed every target's RPC timeout, so a delayed request or
//     response looks lost to the sender but still arrives.
//   - PartialDupOffset: how long after its first copy the second copy of a
//     duplicated message is delivered.
const (
	EnvCrashRestartAfter  = 600 * des.Millisecond
	EnvPartitionHealAfter = 500 * des.Millisecond
	EnvDelayBy            = 400 * des.Millisecond
	PartialDupOffset      = 250 * des.Millisecond
)

const (
	envSitePrefix     = "env/"
	partialSitePrefix = "partial/"
)

// pseudoRow is everything class-specific about a pseudo-site: which
// feature activates it, how its ID is spelled, and what an injection
// there records, lasts and logs. sep is the operand shape after the
// prefix: "" for a single operand (a node name, or the wrapped
// operation's own site ID), "~" for an unordered node pair (sorted) and
// ">" for a directed channel. The marker is a format over (subject,
// peer); it lives next to the grammar because two layers depend on it
// staying identical — the disk/network log it when the fault fires, and
// the explorer treats a failure-log observable equal to a site's
// sanitized marker as direct evidence for that site.
type pseudoRow struct {
	family   Features
	class    PseudoClass
	prefix   string
	sep      string
	kind     Kind
	duration des.Time
	marker   string
}

// pseudoTable is deliberately unexported data, not a registry: every
// string in it is pinned by golden traces, so a tenth class is an edit
// here (and to the layer that executes it), never a runtime registration.
var pseudoTable = [...]pseudoRow{
	{EnvFaults, EnvCrash, "env/crash/", "", CrashFault, EnvCrashRestartAfter, "env: node %[1]s crashed"},
	{EnvFaults, EnvPartition, "env/partition/", "~", PartitionFault, EnvPartitionHealAfter, "env: partition %[1]s/%[2]s cut"},
	{EnvFaults, EnvDrop, "env/msg-drop/", ">", MsgDropFault, 0, "env: message %[1]s>%[2]s dropped"},
	{EnvFaults, EnvDelay, "env/msg-delay/", ">", MsgDelayFault, EnvDelayBy, "env: message %[1]s>%[2]s delayed"},
	{PartialFaults, PartialShortWrite, "partial/disk/short-write/", "", ShortWrite, 0, "partial: short write at %[1]s"},
	{PartialFaults, PartialENOSPC, "partial/disk/enospc-after/", "", NoSpace, 0, "partial: no space after partial append at %[1]s"},
	{PartialFaults, PartialTornRename, "partial/disk/torn-rename/", "", TornRename, 0, "partial: torn rename at %[1]s"},
	{PartialFaults, PartialEINTR, "partial/net/eintr/", "", Interrupted, 0, "partial: send at %[1]s interrupted"},
	{PartialFaults, PartialDupDeliver, "partial/net/dup-deliver/", ">", DupDeliver, PartialDupOffset, "partial: message %[1]s>%[2]s duplicated"},
}

// rowOf returns the table row of a class (nil for an unknown class).
func rowOf(class PseudoClass) *pseudoRow {
	for i := range pseudoTable {
		if pseudoTable[i].class == class {
			return &pseudoTable[i]
		}
	}
	return nil
}

// PseudoFault describes one pseudo-site fault to execute: the table
// row's constants (Family, Class, Kind, Duration) plus the operands and
// the dynamic facts of the reach that triggered it.
type PseudoFault struct {
	Family     Features // the feature that activates the site: EnvFaults or PartialFaults
	Class      PseudoClass
	Kind       Kind
	Subject    string   // node, first node of a pair, sender of a channel, or wrapped site ID
	Peer       string   // second node of a pair or receiver of a channel; empty otherwise
	Occurrence int      // 1-based occurrence of the pseudo-site this run
	Duration   des.Time // down time, cut time, added delay or duplicate offset; zero if instantaneous
	Amp        int      // observed payload length at the perturbed call (disk classes; zero otherwise)
}

// Site returns the pseudo-site ID addressing this fault.
func (f PseudoFault) Site() string { return PseudoSiteID(f.Class, f.Subject, f.Peer) }

// Marker returns the log line the executing layer emits at the moment
// this fault fires ("" for an unknown class).
func (f PseudoFault) Marker() string {
	row := rowOf(f.Class)
	if row == nil {
		return ""
	}
	return fmt.Sprintf(row.marker, f.Subject, f.Peer)
}

// PseudoSiteID builds the pseudo-site ID for a class and its operands
// ("" for an unknown class). Partition pairs are order-insensitive: the
// two nodes are sorted, so env/partition/a~b and env/partition/b~a are
// the same site. Classes with a single operand ignore peer.
func PseudoSiteID(class PseudoClass, subject, peer string) string {
	row := rowOf(class)
	if row == nil {
		return ""
	}
	if row.sep == "" {
		return row.prefix + subject
	}
	if row.sep == "~" && peer < subject {
		subject, peer = peer, subject
	}
	return row.prefix + subject + row.sep + peer
}

// ParsePseudo decodes a pseudo-site ID into a PseudoFault template
// (Occurrence and Amp zero). It is the inverse of PseudoSiteID.
func ParsePseudo(site string) (PseudoFault, bool) {
	for i := range pseudoTable {
		row := &pseudoTable[i]
		rest, ok := strings.CutPrefix(site, row.prefix)
		if !ok {
			continue
		}
		f := PseudoFault{Family: row.family, Class: row.class, Kind: row.kind, Subject: rest, Duration: row.duration}
		if row.sep != "" {
			f.Subject, f.Peer, ok = strings.Cut(rest, row.sep)
			if !ok || f.Peer == "" {
				return PseudoFault{}, false
			}
		}
		if f.Subject == "" {
			return PseudoFault{}, false
		}
		return f, true
	}
	return PseudoFault{}, false
}

// IsEnvSite reports whether a site ID addresses an environment fault.
func IsEnvSite(site string) bool { return strings.HasPrefix(site, envSitePrefix) }

// IsPartialSite reports whether a site ID addresses a partial fault.
func IsPartialSite(site string) bool { return strings.HasPrefix(site, partialSitePrefix) }
