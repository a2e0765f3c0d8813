package analysis

import (
	"slices"
	"testing"

	"anduril/internal/graph"
	"anduril/internal/inject"
	"anduril/internal/logdiff"
)

func analyzeZK(t *testing.T) *Result {
	t.Helper()
	res, err := AnalyzePackages([]string{"internal/sys/zk"})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestZKSitesDiscovered(t *testing.T) {
	res := analyzeZK(t)
	want := map[string]inject.Kind{
		"zk.sync.append-txn":            inject.IO,
		"zk.sync.fsync-txnlog":          inject.IO,
		"zk.snap.create":                inject.IO,
		"zk.snap.write-body":            inject.IO,
		"zk.snap.read":                  inject.FileNotFound,
		"zk.election.send-vote":         inject.Socket,
		"zk.election.accept-connection": inject.IO,
		"zk.leader.accept-follower":     inject.Socket,
		"zk.follower.forward-request":   inject.Socket,
		"zk.client.request":             inject.Socket,
	}
	got := map[string]inject.Kind{}
	for _, s := range res.Sites {
		got[s.ID] = s.Kind
	}
	for id, kind := range want {
		if got[id] != kind {
			t.Errorf("site %s: kind=%v, want %v", id, got[id], kind)
		}
	}
	if len(res.Sites) < 15 {
		t.Errorf("only %d sites found", len(res.Sites))
	}
}

func TestZKLogsDiscovered(t *testing.T) {
	res := analyzeZK(t)
	templates := map[string]bool{}
	for _, l := range res.Logs {
		templates[l.Template] = true
	}
	for _, tmpl := range []string{
		"Severe unrecoverable error, exiting SyncRequestProcessor on myid=%d: %s",
		"Leader is serving epoch %d with %d synced followers",
		"Unexpected null datatree node restoring snapshot %s: NullPointerException",
		"Client %s request %s timed out; server unavailable",
	} {
		if !templates[tmpl] {
			t.Errorf("template not found: %q", tmpl)
		}
	}
	if len(res.Logs) < 30 {
		t.Errorf("only %d log statements found", len(res.Logs))
	}
}

// pathExists checks site -> ... -> any log node with the given template.
func pathExists(t *testing.T, g *graph.Graph, site, template string) bool {
	t.Helper()
	for _, sink := range g.LogStatements() {
		if sink.Template != template {
			continue
		}
		d := g.DistancesTo(sink.ID)
		if _, ok := d["site:"+site]; ok {
			return true
		}
	}
	return false
}

func TestF1CausalChain(t *testing.T) {
	res := analyzeZK(t)
	// The txn-log append fault must reach the pipeline-death symptom...
	if !pathExists(t, res.Graph, "zk.sync.append-txn",
		"Severe unrecoverable error, exiting SyncRequestProcessor on myid=%d: %s") {
		t.Error("no path from append-txn to pipeline death log")
	}
	// ...and, through the pipelineDead flag (jump strategy), the
	// dropped-request log behind the condition.
	if !pathExists(t, res.Graph, "zk.sync.append-txn",
		"Dropping request %s: request processor unavailable") {
		t.Error("no path from append-txn through pipelineDead condition")
	}
}

func TestF2CrossActorChain(t *testing.T) {
	res := analyzeZK(t)
	// The forward-request fault flows through the continuation handler to
	// the session-close warning...
	if !pathExists(t, res.Graph, "zk.follower.forward-request",
		"Unexpected exception causing session 0x%x close: %s") {
		t.Error("no path from forward-request to session close")
	}
	// ...and across the RPC respond() to the client's failure log.
	if !pathExists(t, res.Graph, "zk.follower.forward-request",
		"Client %s session expired; client failed with connection loss: %s") {
		t.Error("no cross-actor path from forward-request to client failure")
	}
}

func TestF3ElectionChain(t *testing.T) {
	res := analyzeZK(t)
	if !pathExists(t, res.Graph, "zk.election.accept-connection",
		"Exception while listening for election connections on myid=%d: %s; connection manager exiting") {
		t.Error("no path from election accept to listener death")
	}
}

func TestF4SnapshotChain(t *testing.T) {
	res := analyzeZK(t)
	if !pathExists(t, res.Graph, "zk.snap.write-body",
		"Error while taking snapshot on myid=%d: %s") {
		t.Error("no path from snapshot body write to snapshot error")
	}
}

func TestGraphHasAllNodeKinds(t *testing.T) {
	res := analyzeZK(t)
	kinds := map[graph.Kind]int{}
	for _, n := range res.Graph.Nodes() {
		kinds[n.Kind]++
	}
	for _, k := range []graph.Kind{
		graph.Location, graph.Condition, graph.Invocation, graph.Handler,
		graph.InternalException, graph.ExternalException,
	} {
		if kinds[k] == 0 {
			t.Errorf("no %v nodes in graph", k)
		}
	}
	if res.Graph.NumEdges() < 100 {
		t.Errorf("suspiciously small graph: %d edges", res.Graph.NumEdges())
	}
}

func TestTimingPopulated(t *testing.T) {
	res := analyzeZK(t)
	if res.Timing.Total <= 0 {
		t.Error("total timing not recorded")
	}
	if res.LOC < 300 {
		t.Errorf("LOC=%d too small", res.LOC)
	}
}

func TestInferredSitesSubset(t *testing.T) {
	res := analyzeZK(t)
	// Inferred sites for the f1 symptom — those the site-distance table
	// links to its template — must include the root cause but not every
	// site in the system.
	const symptom = "Severe unrecoverable error, exiting SyncRequestProcessor on myid=%d: %s"
	var inferred []string
	for site, m := range res.SiteDistances() {
		if _, ok := m[symptom]; ok {
			inferred = append(inferred, site)
		}
	}
	if !slices.Contains(inferred, "zk.sync.append-txn") {
		t.Error("root-cause site not in inferred set")
	}
	if len(inferred) >= len(res.Sites) {
		t.Errorf("inferred %d of %d sites: the symptom reaches every site", len(inferred), len(res.Sites))
	}
}

func TestMatcher(t *testing.T) {
	m := NewMatcher([]string{
		"Committing zxid=0x%x",
		"Leader is serving epoch %d with %d synced followers",
		"plain message",
	})
	cases := []struct {
		msg  string
		want string
	}{
		{"Committing zxid=0x4", "Committing zxid=0x%x"},
		{"Leader is serving epoch 1 with 2 synced followers", "Leader is serving epoch %d with %d synced followers"},
		{"plain message", "plain message"},
	}
	for _, c := range cases {
		got := m.Match(logdiff.Sanitize(c.msg))
		if len(got) != 1 || got[0] != c.want {
			t.Errorf("Match(%q)=%v, want [%s]", c.msg, got, c.want)
		}
	}
	if got := m.Match(logdiff.Sanitize("unrelated text")); len(got) != 0 {
		t.Errorf("unrelated matched: %v", got)
	}
}

func TestMatcherAmbiguity(t *testing.T) {
	m := NewMatcher([]string{"op %s failed", "op write failed"})
	got := m.Match(logdiff.Sanitize("op write failed"))
	if len(got) != 2 {
		t.Errorf("expected both templates to match, got %v", got)
	}
}
