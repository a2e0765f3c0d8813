package analysis

import (
	"reflect"
	"testing"

	"anduril/internal/graph"
)

// TestAnalysisIsPureFunctionOfSources analyzes every target system twice
// and demands the two Results agree on everything a search reads. The
// per-process BuildTarget memo shares one analysis across every search of a
// system, and every golden trace compares searches made in different
// processes: both are sound only because analysis is a function of the
// sources alone.
func TestAnalysisIsPureFunctionOfSources(t *testing.T) {
	nodes := func(g *graph.Graph) []graph.Node {
		var out []graph.Node
		for _, n := range g.Nodes() {
			out = append(out, *n)
		}
		return out
	}
	for _, sys := range []string{"zk", "dfs", "tablestore", "mq", "kvstore", "dyn", "toy"} {
		t.Run(sys, func(t *testing.T) {
			dirs := []string{"internal/sys/" + sys}
			a, err := AnalyzePackages(dirs)
			if err != nil {
				t.Fatal(err)
			}
			b, err := AnalyzePackages(dirs)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Sites, b.Sites) {
				t.Error("sites differ between runs")
			}
			if !reflect.DeepEqual(a.Logs, b.Logs) {
				t.Error("logs differ between runs")
			}
			if a.LOC != b.LOC {
				t.Errorf("LOC %d vs %d", a.LOC, b.LOC)
			}
			if !reflect.DeepEqual(nodes(a.Graph), nodes(b.Graph)) {
				t.Error("graph nodes differ between runs")
			}
			if a.Graph.NumEdges() != b.Graph.NumEdges() {
				t.Errorf("graph edges %d vs %d", a.Graph.NumEdges(), b.Graph.NumEdges())
			}
			if !reflect.DeepEqual(a.SiteDistances(), b.SiteDistances()) {
				t.Error("site distances differ between runs")
			}
		})
	}
}
