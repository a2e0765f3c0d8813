package analysis

import (
	"reflect"
	"runtime"
	"testing"

	"anduril/internal/graph"
)

// TestAnalysisIsPureFunctionOfSources analyzes every target system twice,
// parsing on one worker and then on four, and demands the two Results agree
// on everything a search reads. The per-process BuildTarget memo shares one
// analysis across every search of a system, and every golden trace
// compares searches made in different processes: both are sound only
// because analysis is a function of the sources alone — not of how many
// workers parsed them or in which order they joined the FileSet.
func TestAnalysisIsPureFunctionOfSources(t *testing.T) {
	analyze := func(t *testing.T, procs int, dirs []string) *Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := AnalyzePackages(dirs)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
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
			a, b := analyze(t, 1, dirs), analyze(t, 4, dirs)
			if !reflect.DeepEqual(analysisPin(t, a), analysisPin(t, b)) {
				t.Error("pins differ between one parse worker and four")
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
