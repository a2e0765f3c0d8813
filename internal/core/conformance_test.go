package core_test

// The dataset conformance suite: what every failure of the dataset owes,
// written once. A cell is one failure under one addressing mode; it is
// observed once per test binary — reproduce with a trace, reproduce again,
// once more with a fresh environment per trial and once in a workspace
// another cell's search left, and export the script — and each property is
// an assertion over that record. TestDatasetConformance sweeps failures.All() × {occurrence,
// path} × every property; the per-class Test* names further down and in
// dataset_test.go / core_test.go select ids × mode × properties from the
// same records. A new scenario or fault class enters the sweep by its
// failures.register call alone.
//
// Regenerate a golden after an intentional explorer change with
//
//	go test ./internal/core -run 'TestDatasetConformance/f26/occurrence/golden' -update
//
// (site_trajectories.golden pins the pre-dyn behaviour of f1–f25; regenerate
// it only when the explorer itself changes, never to absorb a side effect
// of a new target or class.)

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/core"
	"anduril/internal/failures"
	"anduril/internal/inject"
	"anduril/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden trace files")

var addressingModes = []core.Addressing{core.AddrOccurrence, core.AddrPath}

// cell is one failure searched under one set of options — for the sweep,
// the documented flags (the scenario's own classes, seed 1, 500 rounds) in
// one addressing mode — and, after observe, everything the properties look
// at.
type cell struct {
	sc   *failures.Scenario
	opts core.Options
	once sync.Once

	err    error // the observation itself failed (target build, trace sink)
	tgt    *core.Target
	rep    *core.Report
	first  []byte // JSONL trace of the search
	second []byte // JSONL trace of an independent second search
	script []byte // ScriptOf(rep).Marshal(), nil when not reproduced

	// The search with a fresh environment built for every trial.
	fresh      *core.Report
	freshTrace []byte

	// The search in a workspace another cell's search used last (see
	// predecessor).
	warm      *core.Report
	warmTrace []byte
}

type cellKey struct {
	id   string
	mode core.Addressing
}

// predecessor is the cell whose search leaves the workspace c's warm search
// runs in: the next failure of the dataset, cyclically, with another fault
// class set, under the other addressing mode — a workspace whose environments
// served another target, other runtime features and another call tree.
func (c *cell) predecessor() *cell {
	all := failures.All()
	i := slices.Index(all, c.sc)
	for k := 1; k < len(all); k++ {
		sc := all[(i+k)%len(all)]
		if slices.Equal(sc.FaultClasses, c.sc.FaultClasses) {
			continue
		}
		mode := core.AddrPath
		if c.opts.Addressing == core.AddrPath {
			mode = core.AddrOccurrence
		}
		return cells[cellKey{sc.ID, mode}]
	}
	panic("the dataset has a single fault class set")
}

var cells = func() map[cellKey]*cell {
	m := map[cellKey]*cell{}
	for _, sc := range failures.All() {
		for _, mode := range addressingModes {
			m[cellKey{sc.ID, mode}] = &cell{sc: sc, opts: core.Options{Seed: 1, MaxRounds: 500, Addressing: mode}}
		}
	}
	return m
}()

// search runs the cell's target under opts and returns the report and the
// JSONL trace emitted.
func (c *cell) search(opts core.Options) (rep *core.Report, jsonl []byte, err error) {
	return c.traced(opts, func(o core.Options) (*core.Report, error) { return core.Reproduce(c.tgt, o), nil })
}

// traced runs one search under opts with a JSONL trace attached.
func (c *cell) traced(opts core.Options, run func(core.Options) (*core.Report, error)) (rep *core.Report, jsonl []byte, err error) {
	var buf bytes.Buffer
	sink := trace.NewWriter(&buf)
	opts.Trace = sink
	if rep, err = run(opts); err == nil {
		err = sink.Err()
	}
	return rep, buf.Bytes(), err
}

func (c *cell) observe() *cell {
	c.once.Do(func() {
		if c.tgt, c.err = c.sc.BuildTarget(); c.err != nil {
			return
		}
		if c.rep, c.first, c.err = c.search(c.opts); c.err != nil {
			return
		}
		if _, c.second, c.err = c.search(c.opts); c.err != nil {
			return
		}
		c.fresh, c.freshTrace, c.err = c.traced(c.opts, func(o core.Options) (*core.Report, error) {
			return core.ReproduceFresh(c.tgt, o), nil
		})
		if c.err != nil {
			return
		}
		prev := c.predecessor()
		prevTgt, err := prev.sc.BuildTarget()
		if c.err = err; err != nil {
			return
		}
		ws := new(core.Workspace)
		ws.Reproduce(prevTgt, prev.opts)
		c.warm, c.warmTrace, c.err = c.traced(c.opts, func(o core.Options) (*core.Report, error) {
			return ws.Reproduce(c.tgt, o), nil
		})
		if c.err != nil {
			return
		}
		if sf, err := core.ScriptOf(c.rep); err == nil {
			c.script, c.err = sf.Marshal()
		}
	})
	return c
}

// The properties. Each takes an observed cell.

func reproduces(t *testing.T, c *cell) {
	if c.err != nil {
		t.Fatal(c.err)
	}
	if c.rep.Error != "" || !c.rep.Reproduced || c.rep.Script == nil {
		t.Fatalf("%s (%s) not reproduced in %d rounds (error %q)", c.sc.ID, c.sc.Issue, c.rep.Rounds, c.rep.Error)
	}
}

// scriptClass is the fault class a script's site ID belongs to.
func scriptClass(site string) string {
	switch {
	case inject.IsPairSite(site):
		return core.ClassPair
	case inject.IsEnvSite(site):
		return core.ClassEnv
	case inject.IsPartialSite(site):
		return core.ClassPartial
	}
	return core.ClassSite
}

// rooted: the script is a fault of one of the scenario's classes — at the
// declared root where the scenario declares classes — and is well-formed
// for its class and addressing mode.
func rooted(t *testing.T, c *cell) {
	reproduces(t, c)
	s := *c.rep.Script
	class := scriptClass(s.Site)
	if c.sc.FaultClasses == nil {
		// A site-only search may surface an alternate trigger of the same
		// failure (Table 6): the oracle, not the site, defines the failure.
		if class != core.ClassSite {
			t.Fatalf("site-only search reproduced by %v", s)
		}
		if s.Site != c.sc.RootSite {
			t.Logf("reproduced via %s, declared root %s", s.Site, c.sc.RootSite)
		}
	} else if !c.sc.Searches(class) || s.Site != c.sc.RootSite {
		t.Fatalf("reproduced via %v, ground truth %s of classes %v", s, c.sc.RootSite, c.sc.FaultClasses)
	}
	if c.rep.EnvRooted != (class == core.ClassEnv) || c.rep.PartialRooted != (class == core.ClassPartial) {
		t.Fatalf("script %v of class %s reported env-rooted=%v partial-rooted=%v", s, class, c.rep.EnvRooted, c.rep.PartialRooted)
	}
	members := []inject.Instance{s}
	if class == core.ClassPair {
		a, b, ok := inject.PairMembers(s)
		if !ok {
			t.Fatalf("pair script %v does not decompose into two members", s)
		}
		members = []inject.Instance{a, b}
	}
	for _, m := range members {
		if mc := scriptClass(m.Site); mc == core.ClassEnv || mc == core.ClassPartial {
			if f, ok := inject.ParsePseudo(m.Site); !ok || f.Site() != m.Site {
				t.Fatalf("pseudo-site %q does not decode", m.Site)
			}
		}
		if c.opts.Addressing != core.AddrPath {
			if m.Path != "" || m.Occurrence < 1 {
				t.Fatalf("occurrence-mode fault %+v", m)
			}
			continue
		}
		if addr, ok := inject.ParsePathAddr(m.Path); !ok || addr.Site != m.Site {
			t.Fatalf("path %q of %v is not a canonical address ending at its site", m.Path, m)
		}
	}
}

// scriptReplays: the script FILE is the artifact — exported, loaded back,
// and replayed under the seed the file itself records.
func scriptReplays(t *testing.T, c *cell) {
	reproduces(t, c)
	sf, err := core.LoadScript(c.script)
	if err != nil {
		t.Fatalf("exported script does not load: %v\n%s", err, c.script)
	}
	res := cluster.Execute(sf.Seed, sf.Plan(), false, c.tgt.Workload, c.tgt.Horizon)
	if !c.tgt.Oracle.Satisfied(res) {
		t.Fatalf("script %v does not replay under the seed its file records, %d (the search reproduced under %d)",
			sf.Faults, sf.Seed, c.rep.ScriptSeed)
	}
	if len(sf.Faults) != 1 || sf.Faults[0] != *c.rep.Script || sf.Seed != c.rep.ScriptSeed {
		t.Fatalf("script file holds %+v under seed %d, report %+v under seed %d",
			sf.Faults, sf.Seed, *c.rep.Script, c.rep.ScriptSeed)
	}
}

// goldenPath is where the cell's trace is pinned, if it is.
func (c *cell) goldenPath() string {
	switch {
	case c.opts.Addressing == core.AddrPath:
		return fmt.Sprintf("testdata/%s.path.trace.jsonl", c.sc.ID)
	case c.sc.ID == "f3":
		return "testdata/quickstart.trace.jsonl" // ExampleScript's search
	}
	return fmt.Sprintf("testdata/%s.trace.jsonl", c.sc.ID)
}

func golden(t *testing.T, c *cell) {
	reproduces(t, c)
	compareGolden(t, c.goldenPath(), c.first)
}

// goldenIfPinned is golden for the sweep, where most cells pin no trace.
func goldenIfPinned(t *testing.T, c *cell) {
	if _, err := os.Stat(c.goldenPath()); err != nil && !*update {
		t.Skipf("no golden at %s", c.goldenPath())
	}
	golden(t, c)
}

// compareGolden holds a trace to the golden file at path — or, under
// -update, rewrites the file. On a mismatch both streams are decoded for a
// readable event-level diff before failing.
func compareGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden trace updated: %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden trace (run with -update to create it): %v", err)
	}
	if !sameTrace(t, want, got) {
		t.Fatalf("trace differs from %s; rerun with -update if the change is intentional", path)
	}
}

// sameTrace reports whether two JSONL traces are byte-equal; when they are
// not, both are decoded for a readable event-level diff.
func sameTrace(t *testing.T, want, got []byte) bool {
	t.Helper()
	if bytes.Equal(got, want) {
		return true
	}
	gotEv, gerr := trace.ReadAll(bytes.NewReader(got))
	wantEv, werr := trace.ReadAll(bytes.NewReader(want))
	if gerr != nil || werr != nil {
		t.Errorf("traces differ and do not decode: got err %v, want err %v", gerr, werr)
		return false
	}
	t.Errorf("traces differ (%d vs %d events)", len(gotEv), len(wantEv))
	for _, d := range trace.Diff(wantEv, gotEv, 10) {
		t.Error(d)
	}
	return false
}

// TestGoldenTracesReencodeByteEqual: every line of every committed golden
// trace, decoded by trace.ReadAll and rendered again by trace.Line, is the
// line on file — the contract a field added to trace.Event must keep. The
// goldens hold nine of the eleven event types; window_grow, inconclusive
// and Float's "+inf" are pinned by the trace package's own tests.
func TestGoldenTracesReencodeByteEqual(t *testing.T) {
	files, err := filepath.Glob("testdata/*.trace.jsonl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden traces found (err %v)", err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		events, err := trace.ReadAll(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		onFile := strings.SplitAfter(string(raw), "\n")
		if n := len(onFile) - 1; onFile[n] != "" || n != len(events) {
			t.Fatalf("%s: %d events from %d newline-terminated lines", path, len(events), n)
		}
		for i := range events {
			if got := trace.Line(&events[i]) + "\n"; got != onFile[i] {
				t.Errorf("%s:%d re-encodes as\n%s\nnot\n%s", path, i+1, got, onFile[i])
				break
			}
		}
	}
}

// injectedEvent: the reproducing round's injection is on the trace as the
// event type of the script's class, carrying exactly what the site ID and
// the pair reference decode to.
func injectedEvent(t *testing.T, c *cell) {
	reproduces(t, c)
	events, err := trace.ReadAll(bytes.NewReader(c.first))
	if err != nil {
		t.Fatal(err)
	}
	s := *c.rep.Script
	want := trace.Event{
		Type: trace.Injected, Round: c.rep.Rounds,
		Site: s.Site, Occ: s.Occurrence, Path: s.Path, Satisfied: true,
	}
	if f, ok := inject.ParsePseudo(s.Site); ok {
		want.Type = trace.PartialInjected
		want.Class, want.Subject, want.Peer = string(f.Class), f.Subject, f.Peer
		if f.Family == inject.EnvFaults {
			want.Type, want.Dur = trace.EnvInjected, int64(f.Duration)
			if want.Dur <= 0 {
				t.Fatalf("env fault %q has no duration", s.Site)
			}
		}
	} else if a, b, ok := inject.PairMembers(s); ok {
		want.Type, want.Path = trace.PairInjected, ""
		want.Members = []trace.Candidate{
			{Site: a.Site, Occ: a.Occurrence, Path: a.Path},
			{Site: b.Site, Occ: b.Occurrence, Path: b.Path},
		}
	}
	wantLine := trace.Line(&want)
	for i := range events {
		if ev := &events[i]; ev.Satisfied {
			if got := trace.Line(ev); got != wantLine {
				t.Fatalf("reproducing injection is on the trace as\n  %s\nthe script %v decodes to\n  %s", got, s, wantLine)
			}
			return
		}
	}
	t.Fatalf("no satisfied injection on the trace for script %v", s)
}

func twoRunIdentical(t *testing.T, c *cell) {
	reproduces(t, c)
	if !sameTrace(t, c.first, c.second) {
		t.Fatal("two runs of the same (target, options) produced different traces")
	}
}

// recycled: the search runs its trials in the environments its booked rounds
// hand back, in a workspace an earlier search may have left; it is the search
// that builds a fresh environment for every trial, trace and report — from
// whatever workspace the pool gave it, and from one another cell's search
// left (predecessor).
func recycled(t *testing.T, c *cell) {
	reproduces(t, c)
	for _, run := range []struct {
		name  string
		rep   *core.Report
		trace []byte
	}{{"pooled", c.rep, c.first}, {"warm", c.warm, c.warmTrace}} {
		if !sameTrace(t, c.freshTrace, run.trace) {
			t.Fatalf("the %s search differs from the one with a fresh environment per trial", run.name)
		}
		if got, want := normalized(t, run.rep), normalized(t, c.fresh); got != want {
			t.Fatalf("final reports differ:\n%s: %s\nfresh:  %s", run.name, got, want)
		}
	}
}

var properties = []struct {
	name  string
	check func(*testing.T, *cell)
}{
	{"reproduces", reproduces},
	{"root", rooted},
	{"script-replays", scriptReplays},
	{"golden", goldenIfPinned},
	{"injected-event", injectedEvent},
	{"two-run-identical", twoRunIdentical},
	{"recycled", recycled},
}

func TestDatasetConformance(t *testing.T) {
	for _, sc := range failures.All() {
		t.Run(sc.ID, func(t *testing.T) {
			t.Parallel()
			for _, mode := range addressingModes {
				c := cells[cellKey{sc.ID, mode}]
				t.Run(string(mode), func(t *testing.T) {
					t.Parallel()
					c.observe()
					for _, p := range properties {
						t.Run(p.name, func(t *testing.T) { p.check(t, c) })
					}
				})
			}
		})
	}
}

// conform holds the cells ids × mode (nil ids: the whole dataset) to the
// given properties, one subtest per id: the shape of every row below.
func conform(t *testing.T, ids []string, mode core.Addressing, checks ...func(*testing.T, *cell)) {
	if ids == nil {
		for _, sc := range failures.All() {
			ids = append(ids, sc.ID)
		}
	}
	for _, id := range ids {
		c, ok := cells[cellKey{id, mode}]
		if !ok {
			t.Fatalf("scenario %s not registered", id)
		}
		t.Run(id, func(t *testing.T) {
			c.observe()
			for _, check := range checks {
				check(t, c)
			}
		})
	}
}

// The per-class rows. Their names are the ones CI history and the test
// floor know; each selects from the records above.
const occ, byPath = core.AddrOccurrence, core.AddrPath

var (
	envIDs     = []string{"f23", "f24", "f25"}
	dynIDs     = []string{"f26", "f27", "f28", "f29"}
	pairIDs    = []string{"f30", "f31"}
	partialIDs = []string{"f32", "f33", "f34"}
	// One failure per shape path addressing has to carry: f1 (zk one-way
	// Send chains, depth 1198), f4 (depth 468), f23 (an env pseudo-site
	// root), f26 (dyn), f30 (pair members) and f33 (a partial pseudo-site
	// root). Generated at the commit BEFORE path addresses became chain
	// hashes (PR 17): how a path-addressed reach is matched is an
	// implementation detail, the canonical strings on the wire are not.
	pathGoldenIDs = []string{"f1", "f4", "f23", "f26", "f30", "f33"}
)

func TestEnvScenariosReproduceEndToEnd(t *testing.T) { conform(t, envIDs, occ, rooted, scriptReplays) }
func TestEnvTraceDeterminism(t *testing.T)           { conform(t, envIDs, occ, twoRunIdentical) }
func TestEnvInjectedTraceEvents(t *testing.T)        { conform(t, envIDs, occ, injectedEvent) }

func TestDynScenariosReproduceEndToEnd(t *testing.T) { conform(t, dynIDs, occ, rooted, scriptReplays) }
func TestDynGoldenTraces(t *testing.T)               { conform(t, dynIDs, occ, golden) }
func TestDynTraceDeterministic(t *testing.T)         { conform(t, dynIDs, occ, twoRunIdentical) }

func TestPairScenariosReproduceEndToEnd(t *testing.T) {
	conform(t, pairIDs, occ, rooted, scriptReplays)
}
func TestPairGoldenTraces(t *testing.T)       { conform(t, pairIDs, occ, golden) }
func TestPairTraceDeterministic(t *testing.T) { conform(t, pairIDs, occ, twoRunIdentical) }

func TestPartialScenariosReproduceEndToEnd(t *testing.T) {
	conform(t, partialIDs, occ, rooted, scriptReplays)
}
func TestPartialGoldenTraces(t *testing.T)        { conform(t, partialIDs, occ, golden) }
func TestPartialTraceDeterministic(t *testing.T)  { conform(t, partialIDs, occ, twoRunIdentical) }
func TestPartialInjectedTraceEvents(t *testing.T) { conform(t, partialIDs, occ, injectedEvent) }

func TestPathAddressingReproducesDataset(t *testing.T) {
	conform(t, nil, byPath, rooted, scriptReplays, twoRunIdentical)
}
func TestPathAddressingPairScripts(t *testing.T) {
	conform(t, pairIDs, byPath, rooted, scriptReplays, twoRunIdentical)
}
func TestPathGoldenTraces(t *testing.T) { conform(t, pathGoldenIDs, byPath, golden) }

func TestFullFeedbackReproducesEntireDataset(t *testing.T) {
	conform(t, nil, occ, reproduces, scriptReplays)
}
func TestFullFeedbackReproducesZKFailures(t *testing.T) {
	conform(t, []string{"f1", "f2", "f3", "f4"}, occ, reproduces, scriptReplays)
}
func TestGoldenTraceQuickstart(t *testing.T)        { conform(t, []string{"f3"}, occ, golden) }
func TestTraceDeterministicAcrossRuns(t *testing.T) { conform(t, []string{"f3"}, occ, twoRunIdentical) }
