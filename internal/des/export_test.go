package des

import (
	"fmt"
	"slices"
	"strings"
)

// NaivePathString is the oracle for AppendPath and for the node hashes:
// the canonical prefix of a node built the obvious way — collect the edges
// up the parent chain, reverse, join — sharing no code with the rendering
// under test.
func (s *Sim) NaivePathString(id int32) string {
	var edges []string
	for ; s.validPath(id); id = s.pathNodes[id].parent {
		n := s.pathNodes[id]
		if n.seq == 1 {
			edges = append(edges, n.label)
		} else {
			edges = append(edges, fmt.Sprintf("%s[%d]", n.label, n.seq))
		}
	}
	slices.Reverse(edges)
	return strings.Join(edges, ">")
}

// PathNodes is the number of call-tree nodes, the root included.
func (s *Sim) PathNodes() int { return len(s.pathNodes) }
