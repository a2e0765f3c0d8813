// Package dyn is a Dynamo-style eventually-consistent key/value store on
// the simulation kernel: gossip membership with per-round digests, a
// consistent-hash ring with virtual nodes, vector-clock versioning with
// sibling resolution, sloppy-quorum reads and writes (N/R/W configurable
// per workload), read repair, and hinted handoff with tombstone-aware
// replay. Unlike the other target systems, its failures are judged by an
// eventual-consistency oracle — the replicas must converge on the
// acknowledged client state within a bounded amount of virtual time — so
// a defect can stay silent through every individual request and only
// surface as divergence that anti-entropy never heals.
package dyn

import (
	"slices"
	"sort"
	"strconv"
	"strings"
)

// VClock is a vector clock: per-coordinator event counters, held as a
// sequence of (node, counter) pairs sorted by node with no zero counters.
// A clock is an immutable value: every operation that yields a different
// clock builds a new one and none writes through its receiver or its
// argument, so a clock — and a Version carrying one — is shared between
// actors, messages and stores instead of being copied. The zero value is
// the empty clock.
type VClock struct{ pairs []clockPair }

type clockPair struct {
	node string
	n    int
}

// Tick returns the clock with node's counter advanced by one.
func (v VClock) Tick(node string) VClock {
	i, found := slices.BinarySearchFunc(v.pairs, node, func(p clockPair, node string) int {
		return strings.Compare(p.node, node)
	})
	if found {
		out := slices.Clone(v.pairs)
		out[i].n++
		return VClock{out}
	}
	// Clipped to its length the receiver's array has no room, so Insert
	// builds the longer sequence in a new one.
	return VClock{slices.Insert(slices.Clip(v.pairs), i, clockPair{node, 1})}
}

// Merge returns the element-wise maximum of the two clocks. When one
// operand already descends the other it is that maximum and is returned
// as is.
func (v VClock) Merge(o VClock) VClock {
	if v.Descends(o) {
		return v
	}
	if o.Descends(v) {
		return o
	}
	a, b := v.pairs, o.pairs
	out := make([]clockPair, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].node < b[0].node:
			out, a = append(out, a[0]), a[1:]
		case a[0].node > b[0].node:
			out, b = append(out, b[0]), b[1:]
		default:
			p := a[0]
			if b[0].n > p.n {
				p = b[0]
			}
			out, a, b = append(out, p), a[1:], b[1:]
		}
	}
	out = append(out, a...)
	return VClock{append(out, b...)}
}

// Descends reports whether v ≥ o: v has seen every event o has. Equal
// clocks descend each other; use Concurrent for strict incomparability.
func (v VClock) Descends(o VClock) bool {
	a := v.pairs
	for _, p := range o.pairs {
		for len(a) > 0 && a[0].node < p.node {
			a = a[1:]
		}
		if len(a) == 0 || a[0].node != p.node || a[0].n < p.n {
			return false
		}
		a = a[1:]
	}
	return true
}

// Concurrent reports whether neither clock descends the other — the
// sibling case a read must surface to resolution.
func (v VClock) Concurrent(o VClock) bool {
	return !v.Descends(o) && !o.Descends(v)
}

// Equal reports whether the clocks carry identical counters.
func (v VClock) Equal(o VClock) bool { return slices.Equal(v.pairs, o.pairs) }

// AppendTo appends the clock's rendering, "{node:n,node:n}" in node
// order, to dst.
func (v VClock) AppendTo(dst []byte) []byte {
	dst = append(dst, '{')
	for i, p := range v.pairs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, p.node...)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(p.n), 10)
	}
	return append(dst, '}')
}

// String renders the clock deterministically: entries sorted by node.
func (v VClock) String() string { return string(v.AppendTo(nil)) }

// Version is one versioned value of a key: the payload, the clock that
// wrote it, and whether it is a tombstone (a delete that must dominate
// earlier writes until garbage collection).
type Version struct {
	Val  string
	VC   VClock
	Tomb bool
}

// addVersion folds one incoming version into a sibling set: versions the
// newcomer descends are dropped, a newcomer descended by (or equal to) an
// existing version is dropped, and true concurrency keeps both as
// siblings. The set stays sorted deterministically.
func addVersion(set []Version, in Version) []Version {
	kept := set[:0]
	for _, s := range set {
		if s.VC.Descends(in.VC) {
			// Existing version already covers the newcomer (includes the
			// duplicate-delivery case of equal clocks).
			return set
		}
		if !in.VC.Descends(s.VC) {
			kept = append(kept, s)
		}
	}
	kept = append(kept, in)
	sortVersions(kept)
	return kept
}

// sortVersions orders a sibling set deterministically: tombstones last,
// then by value, then by rendered clock.
func sortVersions(set []Version) {
	sort.Slice(set, func(i, j int) bool {
		a, b := set[i], set[j]
		if a.Tomb != b.Tomb {
			return !a.Tomb
		}
		if a.Val != b.Val {
			return a.Val < b.Val
		}
		return a.VC.String() < b.VC.String()
	})
}

// siblings folds a pile of versions collected from several replicas into
// the minimal sibling set.
func siblings(collected []Version) []Version {
	var set []Version
	for _, v := range collected {
		set = addVersion(set, v)
	}
	return set
}

// resolve picks the client-visible winner from a sibling set: the largest
// non-tombstone value if any survives, otherwise the deletion. found is
// false when the set is empty or resolves to a tombstone.
func resolve(set []Version) (winner Version, found bool) {
	if len(set) == 0 {
		return Version{}, false
	}
	// sortVersions puts non-tombstones first ordered by value; the last
	// non-tombstone is the deterministic application-level winner.
	last := -1
	for i, v := range set {
		if !v.Tomb {
			last = i
		}
	}
	if last < 0 {
		return set[len(set)-1], false
	}
	return set[last], true
}

// equalVersionSets reports whether two sibling sets hold the same versions.
func equalVersionSets(a, b []Version) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Tomb != b[i].Tomb || a[i].Val != b[i].Val || !a[i].VC.Equal(b[i].VC) {
			return false
		}
	}
	return true
}
