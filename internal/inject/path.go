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
package inject

import (
	"strconv"
	"strings"
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

// parsePathTerminal splits the "site#n" terminal.
func parsePathTerminal(s string) (site string, n int, ok bool) {
	i := strings.LastIndexByte(s, '#')
	if i < 0 {
		return "", 0, false
	}
	site = s[:i]
	n, err := strconv.Atoi(s[i+1:])
	if err != nil || n < 1 || site == "" {
		return "", 0, false
	}
	return site, n, true
}

// ParsePathAddr decodes a canonical path string, the inverse of
// PathAddr.String. Pseudo-sites (which may contain '>' in their channel
// operands) are recognized first and parsed as an edge-less terminal.
func ParsePathAddr(s string) (PathAddr, bool) {
	if IsEnvSite(s) || IsPartialSite(s) {
		site, n, ok := parsePathTerminal(s)
		if !ok {
			return PathAddr{}, false
		}
		if _, ok := ParsePseudo(site); !ok {
			return PathAddr{}, false
		}
		return PathAddr{Site: site, N: n}, true
	}
	segs := strings.Split(s, ">")
	var a PathAddr
	for _, seg := range segs[:len(segs)-1] {
		e := PathEdge{Label: seg, Seq: 1}
		if j := strings.IndexByte(seg, '['); j >= 0 {
			if !strings.HasSuffix(seg, "]") {
				return PathAddr{}, false
			}
			seq, err := strconv.Atoi(seg[j+1 : len(seg)-1])
			if err != nil || seq < 1 {
				return PathAddr{}, false
			}
			e.Label, e.Seq = seg[:j], seq
		}
		if !validPathLabel(e.Label) {
			return PathAddr{}, false
		}
		a.Edges = append(a.Edges, e)
	}
	site, n, ok := parsePathTerminal(segs[len(segs)-1])
	if !ok || !validPathLabel(site) {
		return PathAddr{}, false
	}
	a.Site, a.N = site, n
	return a, true
}
