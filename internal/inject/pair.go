// Combined-fault addressing. Some failures only manifest when two
// faults land in one execution — a first fault that corrupts state and a
// second that blocks the recovery path. A fault *pair* is addressed
// through a pseudo-site, exactly like the classes of pseudo.go, so the
// explorer's (site, occurrence) currency covers combinations without new
// plan, tried-set or checkpoint machinery:
//
//	pair/<siteA>+<siteB>    the unordered pair of member fault sites
//
// A pair *instance* additionally needs its two member instances; they
// ride in the Instance's Path field as two member references joined by
// '+' (the one character no site ID, env site ID or path string may
// contain). A member reference is either the member's full canonical
// path string (under path addressing) or "site:occ" (under occurrence
// addressing) — ':' likewise never appears in either grammar, keeping
// the two forms distinguishable on parse.
package inject

import (
	"strconv"
	"strings"
)

// pairSitePrefix marks combined-fault pseudo-sites; ordinary dotted site
// IDs and env/ pseudo-sites can never start with it.
const pairSitePrefix = "pair/"

// IsPairSite reports whether a site ID addresses a fault pair.
func IsPairSite(site string) bool { return strings.HasPrefix(site, pairSitePrefix) }

// PairSiteID builds the pseudo-site ID for an unordered pair of member
// fault sites. The members are sorted so PairSiteID(a, b) == PairSiteID(b, a).
func PairSiteID(a, b string) string {
	if b < a {
		a, b = b, a
	}
	return pairSitePrefix + a + "+" + b
}

// memberRef renders one pair member as a replayable reference.
func memberRef(m Instance) string {
	if m.Path != "" {
		return m.Path
	}
	return m.Site + ":" + strconv.Itoa(m.Occurrence)
}

// parseMemberRef decodes a member reference back into an Instance.
func parseMemberRef(ref string) (Instance, bool) {
	if i := strings.LastIndexByte(ref, ':'); i >= 0 {
		occ, err := strconv.Atoi(ref[i+1:])
		if err != nil || occ < 1 || ref[:i] == "" {
			return Instance{}, false
		}
		return Instance{Site: ref[:i], Occurrence: occ}, true
	}
	site, _, ok := scanPathAddr(ref, func(PathEdge) {})
	if !ok {
		return Instance{}, false
	}
	return Instance{Site: site, Path: ref}, true
}

// PairInstance builds the combined Instance for two member instances.
// The member references are sorted into a canonical order; Occurrence is
// left zero for the caller (the explorer numbers pair instances within
// their pair site).
func PairInstance(a, b Instance) Instance {
	ra, rb := memberRef(a), memberRef(b)
	if rb < ra {
		ra, rb = rb, ra
	}
	return Instance{Site: PairSiteID(a.Site, b.Site), Path: ra + "+" + rb}
}

// String names the instance for a person: "site#occ", the canonical path
// under path addressing, and a pair as its two members, "A + B". A pair
// whose path does not decode reads as "site#occ". Every front end shows a
// fault through it; scripts, plans and traces keep the wire forms.
func (inst Instance) String() string {
	if a, b, ok := PairMembers(inst); ok {
		return a.String() + " + " + b.String()
	}
	if inst.Path != "" && !IsPairSite(inst.Site) {
		return inst.Path
	}
	return inst.Site + "#" + strconv.Itoa(inst.Occurrence)
}

// PairMembers decodes a pair Instance back into its two member
// instances (ok false if inst is not a well-formed pair).
func PairMembers(inst Instance) (a, b Instance, ok bool) {
	if !IsPairSite(inst.Site) {
		return Instance{}, Instance{}, false
	}
	ra, rb, found := strings.Cut(inst.Path, "+")
	if !found || ra == "" || rb == "" {
		return Instance{}, Instance{}, false
	}
	a, ok = parseMemberRef(ra)
	if !ok {
		return Instance{}, Instance{}, false
	}
	b, ok = parseMemberRef(rb)
	if !ok {
		return Instance{}, Instance{}, false
	}
	return a, b, true
}
