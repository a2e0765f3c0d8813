package dyn

import (
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Ring is a consistent-hash ring: each member contributes a fixed number
// of virtual-node points, and a key's preference list is the first N
// distinct members walking clockwise from the key's hash. Rings are
// versioned; membership changes build a new ring with a higher version
// and gossip carries it through the cluster.
//
// Version, Members and the point table never change after construction.
// The only mutable part is the owners memo PreferenceList fills, so a Ring
// belongs to one simulation (which is single-threaded) and must not be
// shared between goroutines; the point table behind it may be.
type Ring struct {
	Version int
	Members []string // sorted

	points []ringPoint         // sorted by hash; never written after construction
	owners map[string][]string // key -> the longest preference list asked for so far
}

type ringPoint struct {
	hash uint32
	node string
}

// NewRing builds a ring for the given members (order-insensitive) with
// vnodes virtual points per member. Hashing is seed-independent — the
// same membership always yields the same ring — so routing geometry is
// identical across runs and seeds. It always computes the point table
// afresh; the cluster obtains its rings through sharedRing.
func NewRing(version int, members []string, vnodes int) *Ring {
	sorted := sortedCopy(members)
	return &Ring{Version: version, Members: sorted, points: ringPoints(sorted, vnodes)}
}

func sortedCopy(members []string) []string {
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	return sorted
}

// ringPoints hashes vnodes points per member and sorts them by hash.
func ringPoints(sorted []string, vnodes int) []ringPoint {
	points := make([]ringPoint, 0, len(sorted)*vnodes)
	for _, m := range sorted {
		for i := 0; i < vnodes; i++ {
			points = append(points, ringPoint{hash: hash32(m + "#" + strconv.Itoa(i)), node: m})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].node < points[j].node
	})
	return points
}

// pointTables memoizes ringPoints by (sorted members, vnodes). The table is
// a pure function of that key and immutable once built, so every trial, and
// every daemon worker, of a process shares one table per configuration
// instead of hashing and sorting it again per node per trial. The key space
// is the handful of memberships the targets' configurations name.
var pointTables sync.Map // string -> []ringPoint

// sharedRing is NewRing over the memoized point table: a fresh header with
// its own Members and owners memo, so rings in different simulations share
// nothing mutable.
func sharedRing(version int, members []string, vnodes int) *Ring {
	sorted := sortedCopy(members)
	key := strconv.Itoa(vnodes) + "\x00" + strings.Join(sorted, "\x00")
	points, ok := pointTables.Load(key)
	if !ok {
		points, _ = pointTables.LoadOrStore(key, ringPoints(sorted, vnodes))
	}
	return &Ring{Version: version, Members: sorted, points: points.([]ringPoint)}
}

// hash32 is 32-bit FNV-1a, bit-identical to hash/fnv's New32a.
func hash32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// PreferenceList returns the first n distinct members clockwise from the
// key's hash — the key's owners under this ring. Fewer than n members
// yields the full membership.
//
// The returned slice is the ring's memo of that answer and is read-only:
// callers may range over it and append to it (its capacity equals its
// length, so an append copies), but must not assign to its elements.
func (r *Ring) PreferenceList(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.Members) {
		n = len(r.Members)
	}
	// The first n distinct members are a prefix of the first n+1, so the
	// longest list computed so far answers every shorter request.
	if owners := r.owners[key]; len(owners) >= n {
		return owners[:n:n]
	}
	kh := hash32(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	owners := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		node := r.points[(start+i)%len(r.points)].node
		if !containsStr(owners, node) {
			owners = append(owners, node)
		}
	}
	if r.owners == nil {
		r.owners = make(map[string][]string)
	}
	r.owners[key] = owners
	return owners
}

// Contains reports whether node is a member of the ring.
func (r *Ring) Contains(node string) bool {
	i := sort.SearchStrings(r.Members, node)
	return i < len(r.Members) && r.Members[i] == node
}
