package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildDiamond builds: site -> a -> log1, site -> b -> c -> log1, b -> log2.
func buildDiamond(t *testing.T) *Graph {
	t.Helper()
	g := New()
	g.AddNode(Node{ID: "site", Kind: ExternalException, Site: "sys.op"})
	g.AddNode(Node{ID: "a", Kind: Handler})
	g.AddNode(Node{ID: "b", Kind: Invocation})
	g.AddNode(Node{ID: "c", Kind: Condition})
	g.AddNode(Node{ID: "log1", Kind: Location, Template: "op failed: %s"})
	g.AddNode(Node{ID: "log2", Kind: Location, Template: "retrying"})
	for _, e := range [][2]string{{"site", "a"}, {"a", "log1"}, {"site", "b"}, {"b", "c"}, {"c", "log1"}, {"b", "log2"}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAddEdgeUnknownNode(t *testing.T) {
	g := New()
	g.AddNode(Node{ID: "x", Kind: Location})
	if err := g.AddEdge("x", "missing"); err == nil {
		t.Fatal("expected error for unknown effect")
	}
	if err := g.AddEdge("missing", "x"); err == nil {
		t.Fatal("expected error for unknown cause")
	}
}

func TestDuplicateEdgesIgnored(t *testing.T) {
	g := buildDiamond(t)
	before := g.NumEdges()
	if err := g.AddEdge("site", "a"); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != before {
		t.Fatalf("duplicate edge counted: %d -> %d", before, g.NumEdges())
	}
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	n1 := g.AddNode(Node{ID: "x", Kind: Handler})
	n2 := g.AddNode(Node{ID: "x", Kind: Location}) // second insert ignored
	if n1 != n2 || n2.Kind != Handler {
		t.Fatalf("AddNode not idempotent: %+v vs %+v", n1, n2)
	}
}

func TestDistancesTo(t *testing.T) {
	g := buildDiamond(t)
	d := g.DistancesTo("log1")
	if d["log1"] != 0 || d["a"] != 1 || d["c"] != 1 || d["b"] != 2 || d["site"] != 2 {
		t.Fatalf("distances: %v", d)
	}
	if _, ok := d["log2"]; ok {
		t.Fatal("log2 cannot reach log1")
	}
}

func TestSiteDistances(t *testing.T) {
	g := buildDiamond(t)
	sd := g.SiteDistances()
	m := sd["sys.op"]
	if m == nil {
		t.Fatal("no distances for site")
	}
	// site->a->log1 is 2 hops; site->b->log2 is 2 hops.
	if m["op failed: %s"] != 2 || m["retrying"] != 2 {
		t.Fatalf("distances: %v", m)
	}
}

func TestFaultSitesAndLogStatements(t *testing.T) {
	g := buildDiamond(t)
	sites := g.FaultSites()
	if len(sites) != 1 || sites[0].Site != "sys.op" {
		t.Fatalf("sites: %v", sites)
	}
	logs := g.LogStatements()
	if len(logs) != 2 {
		t.Fatalf("log statements: %v", logs)
	}
}

func TestKindString(t *testing.T) {
	for k := Location; k <= ExternalException; k++ {
		if k.String() == "" {
			t.Fatalf("empty string for kind %d", int(k))
		}
	}
}

// Property: BFS distances satisfy the triangle property along edges:
// for any edge u->v with both distances defined, d(u) <= d(v)+1.
func TestBFSProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := New()
		n := 5 + r.Intn(30)
		ids := make([]string, n)
		for i := range ids {
			ids[i] = string(rune('A'+i%26)) + string(rune('0'+i/26))
			kind := Location
			if i%4 == 0 {
				kind = ExternalException
			}
			g.AddNode(Node{ID: ids[i], Kind: kind, Site: "s" + ids[i], Template: "t" + ids[i]})
		}
		type edge struct{ u, v string }
		var edges []edge
		for i := 0; i < n*2; i++ {
			u, v := ids[r.Intn(n)], ids[r.Intn(n)]
			if u == v {
				continue
			}
			g.AddEdge(u, v)
			edges = append(edges, edge{u, v})
		}
		target := ids[r.Intn(n)]
		d := g.DistancesTo(target)
		for _, e := range edges {
			du, okU := d[e.u]
			dv, okV := d[e.v]
			if okV && (!okU || du > dv+1) {
				return false
			}
		}
		return d[target] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
