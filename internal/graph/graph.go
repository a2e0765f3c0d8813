// Package graph holds the static causal graph of §4.1.
//
// Nodes are program points classified with the paper's seven node kinds;
// edges run from a causally-prior node to its effect, so source nodes are
// fault sites (new-exception and external-exception nodes) and sink nodes
// are the statements that produce log messages. The explorer's spatial
// distance L_{i,k} is the unweighted shortest-path length from fault site i
// to the statement emitting observable k.
package graph

import (
	"fmt"
	"sort"
)

// Kind classifies a causal-graph node (§4.1).
type Kind int

// Node kinds. Location/Condition/Invocation follow Pensieve; Handler and
// the three exception kinds are the paper's extensions.
const (
	Location Kind = iota
	Condition
	Invocation
	Handler
	InternalException
	NewException
	ExternalException
)

func (k Kind) String() string {
	switch k {
	case Location:
		return "location"
	case Condition:
		return "condition"
	case Invocation:
		return "invocation"
	case Handler:
		return "handler"
	case InternalException:
		return "internal-exception"
	case NewException:
		return "new-exception"
	case ExternalException:
		return "external-exception"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is one program point in the causal graph.
type Node struct {
	ID       string // unique; convention "kind:file:line[:extra]"
	Kind     Kind
	Pos      string // "file:line" of the program point
	Site     string // fault-site ID for exception source nodes
	Template string // log format string for log-statement location nodes
	Func     string // enclosing function, for diagnostics
}

// IsFaultSite reports whether the node is an injectable source node.
func (n *Node) IsFaultSite() bool {
	return (n.Kind == NewException || n.Kind == ExternalException) && n.Site != ""
}

// Graph is a directed causal graph; an edge u->v means "u is causally prior
// to v" (a fault at u can make v happen).
type Graph struct {
	nodes map[string]*Node
	out   map[string][]string
	in    map[string][]string
	edges int
}

// New creates an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[string]*Node),
		out:   make(map[string][]string),
		in:    make(map[string][]string),
	}
}

// AddNode inserts a node if absent and returns the stored copy.
func (g *Graph) AddNode(n Node) *Node {
	if existing, ok := g.nodes[n.ID]; ok {
		return existing
	}
	stored := n
	g.nodes[n.ID] = &stored
	return &stored
}

// Node returns the node by ID.
func (g *Graph) Node(id string) (*Node, bool) {
	n, ok := g.nodes[id]
	return n, ok
}

// AddEdge records that cause is causally prior to effect. Duplicate edges
// are ignored. Both endpoints must already exist.
func (g *Graph) AddEdge(cause, effect string) error {
	if _, ok := g.nodes[cause]; !ok {
		return fmt.Errorf("graph: unknown cause node %q", cause)
	}
	if _, ok := g.nodes[effect]; !ok {
		return fmt.Errorf("graph: unknown effect node %q", effect)
	}
	out := g.out[cause]
	for _, e := range out {
		if e == effect {
			return nil
		}
	}
	g.out[cause] = append(out, effect)
	g.in[effect] = append(g.in[effect], cause)
	g.edges++
	return nil
}

// NumNodes and NumEdges report the graph size (reported per-system the way
// §4.1 quotes the HBase graph size).
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of distinct edges.
func (g *Graph) NumEdges() int { return g.edges }

// Nodes returns all nodes sorted by ID for deterministic iteration.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FaultSites returns all injectable source nodes, sorted by site ID.
func (g *Graph) FaultSites() []*Node {
	var out []*Node
	for _, n := range g.nodes {
		if n.IsFaultSite() {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// LogStatements returns all location nodes carrying a log template.
func (g *Graph) LogStatements() []*Node {
	var out []*Node
	for _, n := range g.nodes {
		if n.Kind == Location && n.Template != "" {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DistancesTo runs a reverse BFS from the given node and returns, for every
// node that can reach it, the unweighted shortest-path length. The target
// itself has distance 0.
func (g *Graph) DistancesTo(id string) map[string]int {
	dist := map[string]int{}
	if _, ok := g.nodes[id]; !ok {
		return dist
	}
	dist[id] = 0
	queue := []string{id}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, prev := range g.in[cur] {
			if _, seen := dist[prev]; !seen {
				dist[prev] = dist[cur] + 1
				queue = append(queue, prev)
			}
		}
	}
	return dist
}

// SiteDistances computes, for every fault site, the distance to each log
// template it can reach: the L_{i,k} table of §5.2.2. The result maps
// site -> template -> hops (minimum over statements sharing a template).
func (g *Graph) SiteDistances() map[string]map[string]int {
	res := make(map[string]map[string]int)
	for _, sink := range g.LogStatements() {
		d := g.DistancesTo(sink.ID)
		for id, hops := range d {
			n := g.nodes[id]
			if !n.IsFaultSite() {
				continue
			}
			m := res[n.Site]
			if m == nil {
				m = make(map[string]int)
				res[n.Site] = m
			}
			if old, ok := m[sink.Template]; !ok || hops < old {
				m[sink.Template] = hops
			}
		}
	}
	return res
}
