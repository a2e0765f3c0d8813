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
// After an intentional explorer change, scripts/update_goldens.sh
// regenerates every golden of the repository and lists what moved.

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io/fs"
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
	"anduril/internal/parallel"
	"anduril/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files")

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

// cellOrder is every cell's key, in failures.All() × addressingModes order.
var cellOrder, cells = func() ([]cellKey, map[cellKey]*cell) {
	var keys []cellKey
	m := map[cellKey]*cell{}
	for _, sc := range failures.All() {
		for _, mode := range addressingModes {
			k := cellKey{sc.ID, mode}
			keys, m[k] = append(keys, k), &cell{sc: sc, opts: core.Options{Seed: 1, MaxRounds: 500, Addressing: mode}}
		}
	}
	return keys, m
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
		if s.Site != c.sc.Root.Site {
			t.Logf("reproduced via %s, declared root %s", s.Site, c.sc.Root.Site)
		}
	} else if !slices.Contains(c.sc.FaultClasses, class) || s.Site != c.sc.Root.Site {
		t.Fatalf("reproduced via %v, ground truth %s of classes %v", s, c.sc.Root.Site, c.sc.FaultClasses)
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
	res, err := cluster.Run(nil, nil, sf.Seed, inject.Exact(sf.Faults...), c.tgt.Workload, c.tgt.Horizon, 0)
	if err != nil || !c.tgt.Oracle.Satisfied(res) {
		t.Fatalf("script %v does not replay under the seed its file records, %d (the search reproduced under %d)",
			sf.Faults, sf.Seed, c.rep.ScriptSeed)
	}
	if len(sf.Faults) != 1 || sf.Faults[0] != *c.rep.Script || sf.Seed != c.rep.ScriptSeed {
		t.Fatalf("script file holds %+v under seed %d, report %+v under seed %d",
			sf.Faults, sf.Seed, *c.rep.Script, c.rep.ScriptSeed)
	}
}

// goldenPath is where the cell's trace is pinned in full, if it is: only f3
// (ExampleScript's search), f23 in path mode, f31 and f32 pin one.
func (c *cell) goldenPath() string {
	switch {
	case c.opts.Addressing == core.AddrPath:
		return fmt.Sprintf("testdata/%s.path.trace.jsonl", c.sc.ID)
	case c.sc.ID == "f3":
		return "testdata/quickstart.trace.jsonl" // ExampleScript's search
	}
	return fmt.Sprintf("testdata/%s.trace.jsonl", c.sc.ID)
}

// datasetGolden pins every cell's search: one section per cell, in
// cellOrder, each the cell's section() rendering.
const datasetGolden = "testdata/dataset_trajectories.golden"

// section renders one search as a section of a trajectory golden: a header
// naming the failure and variant and holding the SHA-256 of the search's
// JSONL trace and of its canonical report, then its trajectory.
func section(sc *failures.Scenario, variant string, jsonl []byte, rep *core.Report) (string, error) {
	canon, err := core.CanonicalReport(rep)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("== %s %s trace=%x report=%x\n", sc.ID, variant, sha256.Sum256(jsonl), sha256.Sum256(canon)) +
		trajectory(sc, rep), nil
}

// trajectory renders a search's every deterministic per-round datum,
// nothing wall-clock dependent.
func trajectory(sc *failures.Scenario, rep *core.Report) string {
	var b strings.Builder
	script := "none"
	if rep.Script != nil {
		script = fmt.Sprintf("%s#%d", rep.Script.Site, rep.Script.Occurrence)
	}
	fmt.Fprintf(&b, "%s reproduced=%v rounds=%d script=%s\n", sc.ID, rep.Reproduced, rep.Rounds, script)
	for _, rd := range rep.RoundLog {
		inj := "none"
		if rd.Injected != nil {
			inj = fmt.Sprintf("%s#%d", rd.Injected.Site, rd.Injected.Occurrence)
		}
		fmt.Fprintf(&b, "round %d inj=%s sat=%v rank=%d missing=%d window=%d\n",
			rd.N, inj, rd.Satisfied, rd.RootRank, rd.MissingObs, rd.WindowSize)
	}
	return b.String()
}

// datasetSections is the dataset golden as read, one {"<id> <mode>",
// section} pair per "== " header, in file order.
var datasetSections = sync.OnceValues(func() ([][2]string, error) {
	raw, err := os.ReadFile(datasetGolden)
	var secs [][2]string
	for _, line := range strings.SplitAfter(string(raw), "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == "==" {
			secs = append(secs, [2]string{f[1] + " " + f[2], ""})
		} else if len(secs) == 0 && line != "" {
			return nil, fmt.Errorf("%s: %q before the first section", datasetGolden, line)
		}
		if len(secs) > 0 {
			secs[len(secs)-1][1] += line
		}
	}
	return secs, err
})

// writeGoldens rewrites the dataset golden from every cell, observing the
// ones no test has yet, and the trace of every cell that pins one.
var writeGoldens = sync.OnceValue(func() error {
	secs, err := parallel.Map(0, cellOrder, func(_ int, k cellKey) (string, error) {
		c := cells[k].observe()
		if c.err != nil {
			return "", fmt.Errorf("%s %s: %w", k.id, k.mode, c.err)
		}
		if _, err := os.Stat(c.goldenPath()); err == nil {
			if err := os.WriteFile(c.goldenPath(), c.first, 0o644); err != nil {
				return "", err
			}
		}
		return section(c.sc, string(k.mode), c.first, c.rep)
	})
	if err != nil {
		return err
	}
	return os.WriteFile(datasetGolden, []byte(strings.Join(secs, "")), 0o644)
})

// golden: the cell's section of the dataset golden is its search, and a
// cell that pins its trace in full (goldenPath) emits those bytes. Under
// -update the first golden check rewrites both files from every cell,
// whatever -run selected.
func golden(t *testing.T, c *cell) {
	reproduces(t, c)
	if *update {
		if err := writeGoldens(); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := section(c.sc, string(c.opts.Addressing), c.first, c.rep)
	secs, rerr := datasetSections()
	if err = errors.Join(err, rerr); err != nil {
		t.Fatal(err)
	}
	key := c.sc.ID + " " + string(c.opts.Addressing)
	i := slices.IndexFunc(secs, func(s [2]string) bool { return s[0] == key })
	if i < 0 {
		t.Fatalf("%s has no section %q", datasetGolden, key)
	}
	if d := diffLines(secs[i][1], got); d != "" {
		t.Fatalf("search differs from its section in %s %s", datasetGolden, d)
	}
	switch want, err := os.ReadFile(c.goldenPath()); {
	case errors.Is(err, fs.ErrNotExist): // pinned by the section's trace hash alone
	case err != nil:
		t.Fatal(err)
	case !sameTrace(t, want, c.first):
		t.Fatalf("trace differs from %s", c.goldenPath())
	}
}

// compareText holds got to the text golden at path — or, under -update,
// rewrites the file.
func compareText(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffLines(string(want), got); d != "" {
		t.Fatalf("%s differs %s", path, d)
	}
}

// diffLines locates the first line where two renderings differ, naming the
// "== " section header above it, or is "" when they are equal.
func diffLines(want, got string) string {
	w, g := strings.SplitAfter(want, "\n"), strings.SplitAfter(got, "\n")
	header := ""
	for i := range min(len(w), len(g)) {
		if strings.HasPrefix(w[i], "== ") {
			header = strings.TrimSpace(w[i])
		}
		if w[i] != g[i] {
			return fmt.Sprintf("at line %d (under %q):\n- %q\n+ %q", i+1, header, w[i], g[i])
		}
	}
	if len(w) != len(g) {
		return fmt.Sprintf("in length: %d lines, want %d", len(g), len(w))
	}
	return ""
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
// goldens hold eight of the eleven event types, each at least once;
// window_grow, second_pass, inconclusive and Float's "+inf" are pinned by
// the trace package's own tests. An -update run is rewriting the goldens
// this reads, so it skips; the run without -update checks them.
func TestGoldenTracesReencodeByteEqual(t *testing.T) {
	if *update {
		t.Skip("-update rewrites the golden traces")
	}
	files, err := filepath.Glob("testdata/*.trace.jsonl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden traces found (err %v)", err)
	}
	held := map[trace.EventType]bool{}
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
			held[events[i].Type] = true
			if got := trace.Line(&events[i]) + "\n"; got != onFile[i] {
				t.Errorf("%s:%d re-encodes as\n%s\nnot\n%s", path, i+1, got, onFile[i])
				break
			}
		}
	}
	for _, typ := range trace.EventTypes {
		if held[typ] == (typ == trace.WindowGrow || typ == trace.SecondPass || typ == trace.Inconclusive) {
			t.Errorf("event type %s: held by the golden traces = %v", typ, held[typ])
		}
	}
}

// injectedEvent: the reproducing round's injection is on the trace as the
// one injected event of every class, carrying the script's site, occurrence
// and path (a pair's member references), from which a reader decodes the
// class and its operands.
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
	{"golden", golden},
	{"injected-event", injectedEvent},
	{"two-run-identical", twoRunIdentical},
	{"recycled", recycled},
}

func TestDatasetConformance(t *testing.T) {
	if secs, err := datasetSections(); !*update {
		var got, want []string
		for _, s := range secs {
			got = append(got, s[0])
		}
		for _, k := range cellOrder {
			want = append(want, k.id+" "+string(k.mode))
		}
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("%s has sections %q (err %v), want one per cell: %q", datasetGolden, got, err, want)
		}
	}
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
	// root). Their trace hashes predate path addresses becoming chain
	// hashes: how a path-addressed reach is matched is an implementation
	// detail, the canonical strings on the wire are not.
	pathGoldenIDs = []string{"f1", "f4", "f23", "f26", "f30", "f33"}
	// f1–f25's trajectories predate the dyn target, the pair and the
	// partial class: registering scenarios, targets and classes must not
	// perturb another search.
	preDynIDs = strings.Fields("f1 f2 f3 f4 f5 f6 f7 f8 f9 f10 f11 f12 f13 f14 f15 f16 f17 f18 f19 f20 f21 f22 f23 f24 f25")
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
func TestSiteSearchUnchangedByDynEnumeration(t *testing.T) { conform(t, preDynIDs, occ, golden) }
func TestGoldenTraceQuickstart(t *testing.T)               { conform(t, []string{"f3"}, occ, golden) }
func TestTraceDeterministicAcrossRuns(t *testing.T)        { conform(t, []string{"f3"}, occ, twoRunIdentical) }
