package analysis

import (
	"os"
	"path/filepath"
	"testing"

	"anduril/internal/graph"
	"anduril/internal/inject"
)

// analyzeFixture writes a synthetic source file and analyzes it.
func analyzeFixture(t *testing.T, src string) *Result {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fixture.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := AnalyzePackages([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const fixtureHeader = "package fixture\n" + fixtureBody

const fixtureBody = `
type env struct {
	FI   *fiStub
	Disk *diskStub
	Net  *netStub
	Log  *logStub
}
type fiStub struct{}
func (*fiStub) Reach(site string, kind int) error { return nil }
type diskStub struct{}
func (*diskStub) Append(site, path string, b []byte) error { return nil }
func (*diskStub) Read(site, path string) ([]byte, error)   { return nil, nil }
type netStub struct{}
func (*netStub) Call(site string, msg interface{}, t int, f func(interface{}, error)) {}
func (*netStub) Send(site string, msg interface{}) error                              { return nil }
func (*netStub) Handle(node, typ, actor string, h interface{})                        {}
type logStub struct{}
func (*logStub) Infof(f string, a ...interface{})  {}
func (*logStub) Warnf(f string, a ...interface{})  {}
func (*logStub) Errorf(f string, a ...interface{}) {}
var IO, Socket int
`

func TestFixtureLocalHandler(t *testing.T) {
	res := analyzeFixture(t, fixtureHeader+`
func work(e *env) {
	if err := e.Disk.Append("fx.store.append", "f", nil); err != nil {
		e.Log.Errorf("append failed: %s", err)
	}
}
`)
	if len(res.Sites) != 1 || res.Sites[0].ID != "fx.store.append" || res.Sites[0].Kind != inject.IO {
		t.Fatalf("sites: %+v", res.Sites)
	}
	if !pathExists(t, res.Graph, "fx.store.append", "append failed: %s") {
		t.Fatal("no site->handler->log path")
	}
}

func TestFixtureInterproceduralEscape(t *testing.T) {
	res := analyzeFixture(t, fixtureHeader+`
func inner(e *env) error {
	if err := e.Disk.Append("fx.deep.write", "f", nil); err != nil {
		return err
	}
	return nil
}
func middle(e *env) error { return inner(e) }
func outer(e *env) {
	if err := middle(e); err != nil {
		e.Log.Errorf("operation failed at top level")
	}
}
`)
	// The fault must flow inner -> middle -> outer's handler -> log.
	if !pathExists(t, res.Graph, "fx.deep.write", "operation failed at top level") {
		t.Fatal("no interprocedural error-flow path")
	}
}

func TestFixtureConditionJumping(t *testing.T) {
	res := analyzeFixture(t, fixtureHeader+`
type srv struct {
	pipelineDead bool
	e            *env
}
func (s *srv) process() {
	if err := s.e.Disk.Append("fx.log.append", "f", nil); err != nil {
		s.e.Log.Errorf("append broke the pipeline")
		s.pipelineDead = true
	}
}
func (s *srv) serve() {
	if s.pipelineDead {
		s.e.Log.Warnf("dropping request: pipeline unavailable")
	}
}
`)
	// The jump strategy must connect the handler's flag write to the
	// condition guarding the drop message in ANOTHER function.
	if !pathExists(t, res.Graph, "fx.log.append", "dropping request: pipeline unavailable") {
		t.Fatal("no jump-strategy path through the flag")
	}
}

func TestFixtureRPCContinuation(t *testing.T) {
	res := analyzeFixture(t, fixtureHeader+`
type peer struct{ e *env }
func (p *peer) onRequest(msg interface{}, respond func(interface{}, error)) {
	if err := p.e.Disk.Read("fx.remote.read", "f"); err != nil {
		respond(nil, err)
		return
	}
	respond("ok", nil)
}
func (p *peer) register() {
	p.e.Net.Handle("peer", "fx.request", "peer-rpc", p.onRequest)
}
func (p *peer) call() {
	p.e.Net.Call("fx.client.call", "fx.request", 100, func(payload interface{}, err error) {
		if err != nil {
			p.e.Log.Errorf("request to peer failed remotely")
		}
	})
}
`)
	// Cross-actor: the remote read fault must reach the caller's
	// continuation handler via respond().
	if !pathExists(t, res.Graph, "fx.remote.read", "request to peer failed remotely") {
		t.Fatal("no cross-actor path through respond()")
	}
	// And the caller's own socket site reaches it too.
	if !pathExists(t, res.Graph, "fx.client.call", "request to peer failed remotely") {
		t.Fatal("no direct call-site path")
	}
}

func TestFixtureReachKinds(t *testing.T) {
	res := analyzeFixture(t, fixtureHeader+`
func work(e *env) {
	if err := e.FI.Reach("fx.sock.op", Socket); err != nil {
		e.Log.Warnf("socket op failed")
	}
}
`)
	// Reach with a non-inject selector defaults to IO kind but is still a
	// site; pattern fidelity is checked by the zk tests against real code.
	if len(res.Sites) != 1 {
		t.Fatalf("sites: %+v", res.Sites)
	}
}

func TestFixtureNonSiteStringsIgnored(t *testing.T) {
	res := analyzeFixture(t, fixtureHeader+`
func work(e *env) {
	_ = e.Disk.Append("not a site id!", "f", nil)
	_ = e.Disk.Append("nodots", "f", nil)
	if err := e.Disk.Append("fx.real.site", "f", nil); err != nil {
		e.Log.Warnf("x")
	}
}
`)
	if len(res.Sites) != 1 || res.Sites[0].ID != "fx.real.site" {
		t.Fatalf("sites: %+v", res.Sites)
	}
}

func TestFixtureWrappedErrorPropagation(t *testing.T) {
	res := analyzeFixture(t, "package fixture\n\nimport \"fmt\"\n"+fixtureBody+`
func save(e *env) error {
	if err := e.Disk.Append("fx.wrap.write", "f", nil); err != nil {
		return fmt.Errorf("save failed: %w", err)
	}
	return nil
}
func run(e *env) {
	if err := save(e); err != nil {
		e.Log.Errorf("run aborted: %s", err)
	}
}
`)
	if !pathExists(t, res.Graph, "fx.wrap.write", "run aborted: %s") {
		t.Fatal("wrapped error did not propagate")
	}
	// fmt.Errorf creates a new-exception node.
	hasNew := false
	for _, n := range res.Graph.Nodes() {
		if n.Kind == graph.NewException && n.Site == "" {
			hasNew = true
		}
	}
	if !hasNew {
		t.Fatal("no new-exception node for fmt.Errorf")
	}
}

func TestFixtureIsSiteID(t *testing.T) {
	cases := map[string]bool{
		"zk.sync.append-txn": true,
		"a.b":                true,
		"nodots":             false,
		"Has.Caps":           false,
		"with space.x":       false,
		"x.y_z-w.9":          true,
		"..":                 false, // dots but empty segments — still accepted shape-wise? has len>2? ".." len 2 -> false
	}
	for s, want := range cases {
		if got := isSiteID(s); got != want {
			t.Errorf("isSiteID(%q)=%v, want %v", s, got, want)
		}
	}
}
