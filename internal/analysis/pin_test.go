package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var updatePins = flag.Bool("update", false, "rewrite the testdata/pins analysis goldens")

// TestSysAnalysisPinned holds what AnalyzePackages makes of each target
// system to a golden: its fault sites, its log templates, the edges of the
// causal graph that lie on some fault-site → log path, and the site →
// template distances the search ranks by. Nodes are named by kind,
// function and site or template — never by line — so an edit that only
// moves code keeps the pin, while one that links a site to a log it did
// not reach before (a new assignment to a name some logging condition
// reads, say) fails here by name instead of as a moved golden trace three
// packages away. Regenerate with scripts/update_goldens.sh once the change
// is meant.
func TestSysAnalysisPinned(t *testing.T) {
	for _, sys := range []string{"zk", "dfs", "tablestore", "mq", "kvstore", "dyn"} {
		t.Run(sys, func(t *testing.T) {
			got := analysisPin(t, analyzeDir(t, "internal/sys/"+sys))
			path := filepath.Join("testdata", "pins", sys+".txt")
			if *updatePins {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
			missing, extra := lineDiff(want, got)
			if len(missing)+len(extra) == 0 {
				return
			}
			var b strings.Builder
			fmt.Fprintf(&b, "the static analysis of internal/sys/%s moved (%d lines gone, %d new); "+
				"the search ranks sites by this graph, so goldens will move too:\n", sys, len(missing), len(extra))
			for _, l := range missing {
				fmt.Fprintf(&b, "  - %s\n", l)
			}
			for _, l := range extra {
				fmt.Fprintf(&b, "  + %s\n", l)
			}
			t.Error(b.String())
		})
	}
}

// analysisPin renders a Result as sorted, position-free lines.
func analysisPin(t *testing.T, res *Result) []string {
	t.Helper()
	var out []string
	for _, s := range res.Sites {
		out = append(out, fmt.Sprintf("site %s %s in %s", s.ID, s.Kind, s.Func))
	}
	for _, l := range res.Logs {
		out = append(out, fmt.Sprintf("log %q in %s", l.Template, l.Func))
	}

	// The graph's edges, read back from its DOT rendering.
	succ := map[string][]string{}
	pred := map[string][]string{}
	for _, line := range strings.Split(res.Graph.DOT("pin", 0), "\n") {
		if strings.HasSuffix(line, "];") {
			continue // a node
		}
		from, to, ok := strings.Cut(strings.TrimSuffix(strings.TrimSpace(line), ";"), " -> ")
		if !ok {
			continue
		}
		a, errA := strconv.Unquote(from)
		b, errB := strconv.Unquote(to)
		if errA != nil || errB != nil {
			t.Fatalf("unreadable DOT edge %q", line)
		}
		succ[a] = append(succ[a], b)
		pred[b] = append(pred[b], a)
	}
	var sites, logs []string
	for _, n := range res.Graph.FaultSites() {
		sites = append(sites, n.ID)
	}
	for _, n := range res.Graph.LogStatements() {
		logs = append(logs, n.ID)
	}
	fromSite, toLog := reach(sites, succ), reach(logs, pred)

	edges := map[string]bool{}
	for a, outs := range succ {
		for _, b := range outs {
			if fromSite[a] && toLog[a] && fromSite[b] && toLog[b] {
				edges["edge "+pinLabel(res, a)+" -> "+pinLabel(res, b)] = true
			}
		}
	}
	for e := range edges {
		out = append(out, e)
	}
	for site, m := range res.SiteDistances() {
		for tmpl, hops := range m {
			out = append(out, fmt.Sprintf("dist %s %q %d", site, tmpl, hops))
		}
	}
	slices.Sort(out)
	return out
}

// pinLabel names a graph node without its position: the kind its ID
// starts with, its function, and its site or template.
func pinLabel(res *Result, id string) string {
	n, ok := res.Graph.Node(id)
	if !ok {
		return id
	}
	kind, _, _ := strings.Cut(id, ":")
	switch {
	case n.Site != "":
		return "site " + n.Site
	case n.Template != "":
		return fmt.Sprintf("log %s %q", n.Func, n.Template)
	}
	return kind + " " + n.Func
}

// reach is every node reachable from roots along next, roots included.
func reach(roots []string, next map[string][]string) map[string]bool {
	seen := map[string]bool{}
	queue := append([]string(nil), roots...)
	for _, r := range roots {
		seen[r] = true
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, n := range next[cur] {
			if !seen[n] {
				seen[n] = true
				queue = append(queue, n)
			}
		}
	}
	return seen
}

// lineDiff returns the lines of want not in got and of got not in want.
func lineDiff(want, got []string) (missing, extra []string) {
	in := func(list []string) map[string]bool {
		m := make(map[string]bool, len(list))
		for _, l := range list {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	for _, l := range want {
		if !g[l] {
			missing = append(missing, l)
		}
	}
	for _, l := range got {
		if !w[l] {
			extra = append(extra, l)
		}
	}
	return missing, extra
}
