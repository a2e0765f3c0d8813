// Distributed call-path tracking for path-sensitive injection
// addressing. When enabled, every event carries the id of a *path node*
// — its position in the distributed call tree. Posting an event inherits
// the poster's node (timer chains and local steps do not deepen the
// path); a message-send edge extends the tree with PathExtend, labelling
// the child with the sending operation's fault-site ID and a per-edge
// sequence number. The network layer restores a caller's node on RPC
// replies, so a request/reply exchange does not deepen the tree — but a
// one-way Send does, and a protocol that answers one one-way message with
// another (zk's election votes and heartbeats) grows a chain as long as
// the run: measured, the f1 free run reaches depth 1198 and f4 468, while
// the RPC-shaped targets (dfs, dyn, tablestore, mq, kvstore) stay at 3 or
// less. A canonical string is therefore up to tens of KB, which is why a
// node's identity is a hash and its string is only ever rendered on
// demand.
//
// Every node carries the chain hash of its edges, folded one edge at a
// time as the tree grows: hash(child) = PathFold(hash(parent), label, seq).
// PathFold is a fixed function — no per-process seed — so the hash of an
// address is the same in every run and every binary, and a consumer can
// fold a parsed canonical string to the very value a live node carries.
// It is two steps, LabelHash of the label and PathFoldHash of that hash
// onto the chain, so a label is hashed once per table that resolves it —
// the kernel's label table for send edges, the injection runtime's site
// table for reaches — and every fold after that is integer work.
//
// Node ids are assigned in creation order, which is deterministic for a
// seeded run; only the canonical *strings* (stable across interleavings
// by construction) leave the simulation.
package des

import "slices"

// pathNode is one interior node of the call tree: its edge (label, seq)
// from parent, the chain hash of the edges from the root down to it, and
// the length of its canonical rendering, so AppendPath sizes its output
// without a measuring walk.
type pathNode struct {
	parent int32
	seq    int32
	strLen int32
	label  string
	hash   uint64
}

// pathLabel is a send label's entry in the kernel's label table: a dense
// id, which keys the per-(parent, label) sequence counters, and the
// label's LabelHash.
type pathLabel struct {
	id   uint32
	hash uint64
}

// PathRoot is the chain hash of the workload root, the empty path.
const PathRoot uint64 = 0xcbf29ce484222325

// LabelHash is the FNV-1a hash of a label's bytes, the part of PathFold
// that depends on the label alone.
func LabelHash(label string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 0x100000001b3
	}
	return h
}

// PathFoldHash extends a chain hash by one (label, n) element given the
// label's LabelHash: the label hash is xored in and multiplied by the FNV
// prime, n added, and the sum put through a splitmix64 finalizer. Every
// step is a bijection of h, so two different chains stay different
// through a common suffix.
func PathFoldHash(h, labelHash uint64, n int) uint64 {
	h = (h ^ labelHash) * 0x100000001b3
	h += uint64(n) * 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// PathFold extends a chain hash by one (label, n) element: a send edge and
// its sequence number, or — folded by the injection runtime onto a node's
// hash — a fault site and its occurrence within that context. It is
// PathFoldHash over LabelHash(label).
func PathFold(h uint64, label string, n int) uint64 {
	return PathFoldHash(h, LabelHash(label), n)
}

// EnablePathTracking switches path bookkeeping on for this run. It must
// be called before the workload starts; node 0 is the workload root.
func (s *Sim) EnablePathTracking() {
	if s.pathTracking {
		return
	}
	s.pathTracking = true
	s.pathNodes = append(s.pathNodes[:0], pathNode{hash: PathRoot})
	if s.pathSeq == nil {
		s.pathSeq = make(map[uint64]int32)
		s.pathLabels = make(map[string]pathLabel)
	}
}

// PathTracking reports whether path bookkeeping is on.
func (s *Sim) PathTracking() bool { return s.pathTracking }

// CurPath returns the path node of the executing event (0 at the root or
// when tracking is off).
func (s *Sim) CurPath() int32 { return s.curPath }

// PathExtend creates a child node of the current context for one
// message-send edge and returns its id. Each call is a distinct edge
// instance: the sequence number counts sends of this label from this
// context. Returns 0 (root) when tracking is off.
func (s *Sim) PathExtend(label string) int32 {
	if !s.pathTracking {
		return 0
	}
	l, ok := s.pathLabels[label]
	if !ok {
		l = pathLabel{id: uint32(len(s.pathLabels)), hash: LabelHash(label)}
		s.pathLabels[label] = l
	}
	k := uint64(uint32(s.curPath))<<32 | uint64(l.id)
	seq := s.pathSeq[k] + 1
	s.pathSeq[k] = seq
	parent := &s.pathNodes[s.curPath]
	strLen := int32(len(label))
	if s.curPath != 0 {
		strLen += parent.strLen + 1 // "parent>"
	}
	if seq != 1 {
		strLen += 2 // "[seq]"
		for v := seq; v > 0; v /= 10 {
			strLen++
		}
	}
	s.pathNodes = append(s.pathNodes, pathNode{
		parent: s.curPath, seq: seq, strLen: strLen, label: label,
		hash: PathFoldHash(parent.hash, l.hash, int(seq)),
	})
	return int32(len(s.pathNodes) - 1)
}

// validPath reports whether id names a non-root node of this run's tree.
func (s *Sim) validPath(id int32) bool { return id > 0 && int(id) < len(s.pathNodes) }

// PathHash returns the chain hash of a path node (PathRoot for the root,
// an unknown id or a run without tracking).
func (s *Sim) PathHash(id int32) uint64 {
	if !s.validPath(id) {
		return PathRoot
	}
	return s.pathNodes[id].hash
}

// AppendPath appends the canonical prefix of a path node to dst: the
// '>'-joined edge chain from the root, each edge "label" or "label[seq]"
// (seq omitted when 1). The root renders as "". Nothing is cached — the
// tree is only linked upward, so the chain is written back to front into
// space sized from the node's recorded length.
func (s *Sim) AppendPath(dst []byte, id int32) []byte {
	if !s.validPath(id) {
		return dst
	}
	start, w := len(dst), len(dst)+int(s.pathNodes[id].strLen)
	dst = slices.Grow(dst, w-start)[:w]
	for ; id > 0; id = s.pathNodes[id].parent {
		n := &s.pathNodes[id]
		if n.seq != 1 {
			w--
			dst[w] = ']'
			for v := n.seq; v > 0; v /= 10 {
				w--
				dst[w] = byte('0' + v%10)
			}
			w--
			dst[w] = '['
		}
		w -= len(n.label)
		copy(dst[w:], n.label)
		if w > start {
			w--
			dst[w] = '>'
		}
	}
	return dst
}

// PathString renders AppendPath as a string.
func (s *Sim) PathString(id int32) string { return string(s.AppendPath(nil, id)) }

// PostArgPath is PostArg with an explicit path context for the new event
// instead of inheriting the dispatcher's current one. The network layer
// uses it to hand a message delivery the send edge's child node, and to
// restore the caller's node on an RPC reply.
func (s *Sim) PostArgPath(actor string, delay Time, fn func(interface{}), arg interface{}, path int32) {
	e := s.postArg(actor, delay, fn, arg)
	e.path = path
}
