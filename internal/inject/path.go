// Path-sensitive injection addressing (distributed execution indexing).
//
// The default currency of the explorer is (site, global occurrence
// counter), which is brittle under concurrency: any reordering of
// unrelated work shifts every later occurrence number. Following the
// call-path-context idea of Distributed Execution Indexing, a PathAddr
// instead names a dynamic injection point by its position in the
// distributed call tree — the chain of message-send edges that led to
// the executing context, each with a per-edge sequence number, plus the
// occurrence of the site within that exact context:
//
//	client.put>coord.write[2]>dyn.store.persist#1
//
// reads "the 1st reach of dyn.store.persist inside the handler of the
// 2nd coord.write message sent from the handler of the 1st client.put
// message". Edge labels are the fault-site IDs of the sending network
// operations, so the address is derived entirely from bookkeeping the
// harness already owns (the DES dispatcher's current event lineage and
// the network's send edges) — target systems are not modified.
//
// Pseudo-sites (env/..., partial/...) are always root-addressed: their
// occurrence counter is already a deterministic per-run event index, so
// their path form is simply "env/crash/zk3#4".
//
// The canonical string grammar:
//
//	path    = { edge ">" } site "#" n
//	edge    = label | label "[" seq "]"     seq omitted when 1
//	site    = fault-site ID (dotted, or a pseudo-site)
//
// Site IDs never contain '>', '#', '[', ']', ':' or '+' (the pseudo-site
// grammar uses '>' only inside channel operands, and a pseudo-site is
// handled as an opaque terminal), so parsing is unambiguous.
//
// The string is the address's wire form, not its identity inside a run. A
// chain can be as long as the run (see des/path.go: 1198 edges, 26 KB, in
// the zk targets), and a run reaches thousands of sites of which a plan
// names ten. So a reach is identified by a PathKey — a 64-bit hash of the
// chain, folded edge by edge by the kernel as the tree grows, with the
// site and its occurrence folded on — plans are indexed by that hash, and
// the canonical string is rendered only to confirm a hash hit and where an
// address leaves the process. A string arriving from outside is folded
// through the same function when it is armed; that a parsed string and a
// live reach of one address agree is why the parser below accepts nothing
// but the canonical rendering.
package inject

import (
	"strconv"
	"strings"

	"anduril/internal/des"
)

// PathEdge is one step of a distributed call path: the fault-site label
// of the message-send edge and the 1-based sequence number of that label
// within its parent context (how many sends of this label the parent had
// posted, this one included).
type PathEdge struct {
	Label string
	Seq   int
}

// PathAddr addresses a dynamic injection point by call-path context:
// the chain of send edges from the workload root, the fault site, and
// the 1-based occurrence of the site within that exact context.
type PathAddr struct {
	Edges []PathEdge
	Site  string
	N     int
}

// String renders the canonical form. A sequence of 1 is omitted
// (client.put, not client.put[1]); the terminal "#n" is always present.
func (a PathAddr) String() string {
	var b strings.Builder
	for _, e := range a.Edges {
		b.WriteString(e.Label)
		if e.Seq != 1 {
			b.WriteByte('[')
			b.WriteString(strconv.Itoa(e.Seq))
			b.WriteByte(']')
		}
		b.WriteByte('>')
	}
	b.WriteString(a.Site)
	b.WriteByte('#')
	b.WriteString(strconv.Itoa(a.N))
	return b.String()
}

// validPathLabel reports whether a string can serve as an edge label or
// a (non-pseudo) terminal site in the path grammar.
func validPathLabel(s string) bool {
	if s == "" {
		return false
	}
	return !strings.ContainsAny(s, ">#[]+:")
}

// parseCanonInt decodes a sequence or occurrence number exactly as String
// renders one: decimal digits, no sign, no leading zero, at least 1. Being
// this strict is what makes parse∘String the identity, so two strings that
// parse to the same address are the same string.
func parseCanonInt(s string) (int, bool) {
	if s == "" || s[0] < '1' || s[0] > '9' {
		return 0, false
	}
	for i := 1; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
	}
	n, err := strconv.Atoi(s)
	return n, err == nil
}

// parsePathTerminal splits the "site#n" terminal.
func parsePathTerminal(s string) (site string, n int, ok bool) {
	i := strings.LastIndexByte(s, '#')
	if i <= 0 {
		return "", 0, false
	}
	n, ok = parseCanonInt(s[i+1:])
	return s[:i], n, ok
}

// scanPathAddr is the one parser of the canonical grammar: it hands each
// edge to edge, root first, and returns the terminal. Only the canonical
// rendering of an address is accepted — "a[1]", "a[02]", "s#+1" are not —
// so accepting s means PathAddr.String of the result is s. Pseudo-sites
// (which may contain '>' in their channel operands) are recognized first
// and parsed as an edge-less terminal.
func scanPathAddr(s string, edge func(PathEdge)) (site string, n int, ok bool) {
	if IsEnvSite(s) || IsPartialSite(s) {
		if site, n, ok = parsePathTerminal(s); ok {
			_, ok = ParsePseudo(site)
		}
		return site, n, ok
	}
	for {
		seg, rest, more := strings.Cut(s, ">")
		if !more {
			break
		}
		e := PathEdge{Label: seg, Seq: 1}
		if j := strings.IndexByte(seg, '['); j >= 0 {
			if !strings.HasSuffix(seg, "]") {
				return "", 0, false
			}
			seq, ok := parseCanonInt(seg[j+1 : len(seg)-1])
			if !ok || seq == 1 {
				return "", 0, false
			}
			e.Label, e.Seq = seg[:j], seq
		}
		if !validPathLabel(e.Label) {
			return "", 0, false
		}
		edge(e)
		s = rest
	}
	site, n, ok = parsePathTerminal(s)
	return site, n, ok && validPathLabel(site)
}

// ParsePathAddr decodes a canonical path string, the inverse of
// PathAddr.String in both directions: a string it accepts is the String of
// the address it returns.
func ParsePathAddr(s string) (PathAddr, bool) {
	var a PathAddr
	site, n, ok := scanPathAddr(s, func(e PathEdge) { a.Edges = append(a.Edges, e) })
	if !ok {
		return PathAddr{}, false
	}
	a.Site, a.N = site, n
	return a, true
}

// PathKey is the compact identity of one path-addressed reach, what the
// runtime computes and a kept trace records instead of the canonical
// string: Hash is the chain hash of the whole address — the reaching
// context's node hash with (site, N) folded on, see des.PathFold — Node is
// that context's call-tree node and N the occurrence of the site within
// it. The zero PathKey (N is 1-based) means "not path-addressed". Hash is
// how reaches are matched; (Node, N) are what Runtime.PathOf needs to
// render the canonical string, from the tree of the run that produced them.
type PathKey struct {
	Hash uint64
	Node int32
	N    int32
}

// PathTree is the run's distributed call tree as the runtime reads it;
// *des.Sim implements it. A nil tree puts every reach at root context.
type PathTree interface {
	CurPath() int32
	PathHash(node int32) uint64
	AppendPath(dst []byte, node int32) []byte
}

// appendPath renders the canonical string of a reach of site addressed at.
func appendPath(dst []byte, tree PathTree, site string, at PathKey) []byte {
	if tree != nil {
		n := len(dst)
		if dst = tree.AppendPath(dst, at.Node); len(dst) > n {
			dst = append(dst, '>')
		}
	}
	dst = append(dst, site...)
	dst = append(dst, '#')
	return strconv.AppendInt(dst, int64(at.N), 10)
}

// pathSiteHash folds a canonical path string to the chain hash a live
// reach of that address carries, and returns its terminal site.
func pathSiteHash(s string) (site string, hash uint64, ok bool) {
	hash = des.PathRoot
	site, n, ok := scanPathAddr(s, func(e PathEdge) { hash = des.PathFold(hash, e.Label, e.Seq) })
	return site, des.PathFold(hash, site, n), ok
}

// PathHash is the chain hash of a canonical path string: the PathKey.Hash
// of the reach it addresses, in any run (ok false if s is not canonical).
func PathHash(s string) (uint64, bool) {
	_, hash, ok := pathSiteHash(s)
	return hash, ok
}
