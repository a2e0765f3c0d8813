package inject

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"anduril/internal/des"
	"anduril/internal/logdiff"
)

// TestPseudoTablePinnedLiterals spells every wire-visible string of every
// row out as a literal: site IDs, class names, Kind strings, durations and
// marker lines all appear in golden traces, reports and checkpoints, so an
// edit to pseudoTable must fail here before it silently moves a golden.
func TestPseudoTablePinnedLiterals(t *testing.T) {
	want := []struct {
		family  Features
		class   string
		site    string // PseudoSiteID(class, "s1", "p2")
		kind    string
		dur     des.Time
		marker  string
		subject string
		peer    string
	}{
		{EnvFaults, "crash", "env/crash/s1", "CrashFault", 600 * des.Millisecond, "env: node s1 crashed", "s1", ""},
		{EnvFaults, "partition", "env/partition/p2~s1", "PartitionFault", 500 * des.Millisecond, "env: partition p2/s1 cut", "p2", "s1"},
		{EnvFaults, "msg-drop", "env/msg-drop/s1>p2", "MsgDropFault", 0, "env: message s1>p2 dropped", "s1", "p2"},
		{EnvFaults, "msg-delay", "env/msg-delay/s1>p2", "MsgDelayFault", 400 * des.Millisecond, "env: message s1>p2 delayed", "s1", "p2"},
		{PartialFaults, "short-write", "partial/disk/short-write/s1", "ShortWriteError", 0, "partial: short write at s1", "s1", ""},
		{PartialFaults, "enospc-after", "partial/disk/enospc-after/s1", "NoSpaceError", 0, "partial: no space after partial append at s1", "s1", ""},
		{PartialFaults, "torn-rename", "partial/disk/torn-rename/s1", "TornRenameError", 0, "partial: torn rename at s1", "s1", ""},
		{PartialFaults, "eintr", "partial/net/eintr/s1", "InterruptedError", 0, "partial: send at s1 interrupted", "s1", ""},
		{PartialFaults, "dup-deliver", "partial/net/dup-deliver/s1>p2", "DupDeliverFault", 250 * des.Millisecond, "partial: message s1>p2 duplicated", "s1", "p2"},
	}
	if len(want) != len(pseudoTable) {
		t.Fatalf("pseudoTable has %d rows, %d pinned", len(pseudoTable), len(want))
	}
	for i, w := range want {
		row := pseudoTable[i]
		if string(row.class) != w.class || row.family != w.family {
			t.Errorf("row %d is (%v, %q), want (%v, %q)", i, row.family, row.class, w.family, w.class)
			continue
		}
		site := PseudoSiteID(row.class, "s1", "p2")
		if site != w.site {
			t.Errorf("%s: site ID %q, want %q", w.class, site, w.site)
		}
		f, ok := ParsePseudo(w.site)
		if !ok {
			t.Errorf("%s: %q does not parse", w.class, w.site)
			continue
		}
		got := PseudoFault{Family: w.family, Class: PseudoClass(w.class), Kind: Kind(w.kind),
			Subject: w.subject, Peer: w.peer, Duration: w.dur}
		if f != got {
			t.Errorf("%s: parsed %+v, want %+v", w.class, f, got)
		}
		if m := f.Marker(); m != w.marker {
			t.Errorf("%s: marker %q, want %q", w.class, m, w.marker)
		}
	}
}

// TestPseudoGrammarProperties checks, row by row, what makes the one
// grammar safe to share: IDs round-trip, unordered pairs really are
// unordered, malformed operands are rejected, and neither prefixes nor
// markers can be confused across rows or with the other site shapes.
func TestPseudoGrammarProperties(t *testing.T) {
	operands := [][2]string{{"n1", "n2"}, {"n2", "n1"}, {"zk.sync.append-txn", "broker-a"}, {"a/b", "c"}}
	for _, row := range pseudoTable {
		for _, op := range operands {
			site := PseudoSiteID(row.class, op[0], op[1])
			f, ok := ParsePseudo(site)
			if !ok || f.Site() != site || f.Class != row.class || f.Family != row.family {
				t.Errorf("%s: %q does not round-trip (parsed %+v, ok=%v)", row.class, site, f, ok)
			}
			if !strings.HasPrefix(site, row.prefix) || IsEnvSite(site) != (row.family == EnvFaults) ||
				IsPartialSite(site) != (row.family == PartialFaults) || IsPairSite(site) {
				t.Errorf("%s: %q is misclassified by the Is*Site predicates", row.class, site)
			}
			swapped := PseudoSiteID(row.class, op[1], op[0])
			if unordered := row.sep == "~"; (swapped == site) != unordered && op[0] != op[1] {
				t.Errorf("%s: order-insensitive=%v, want %v (%q vs %q)", row.class, swapped == site, unordered, site, swapped)
			}
			if row.sep == "" && (f.Subject != op[0] || f.Peer != "") {
				t.Errorf("%s: single operand parsed as (%q, %q)", row.class, f.Subject, f.Peer)
			}
		}
		bad := []string{row.prefix, strings.TrimSuffix(row.prefix, "/")}
		if row.sep != "" {
			bad = append(bad, row.prefix+"a", row.prefix+row.sep+"b", row.prefix+"a"+row.sep)
		}
		for _, site := range bad {
			if _, ok := ParsePseudo(site); ok {
				t.Errorf("%s: malformed %q accepted", row.class, site)
			}
			r := NewRuntime(nil)
			r.Enable(EnvFaults | PartialFaults)
			if _, ok := r.ReachPseudo(site, 0); ok || len(r.Counts()) != 0 {
				t.Errorf("%s: malformed %q reached or counted", row.class, site)
			}
		}
	}

	markers := map[string]PseudoClass{}
	for i, row := range pseudoTable {
		for j, other := range pseudoTable {
			if i != j && strings.HasPrefix(other.prefix, row.prefix) {
				t.Errorf("prefix %q of %s is a prefix of %s's %q", row.prefix, row.class, other.class, other.prefix)
			}
		}
		if strings.HasPrefix(pairSitePrefix, row.prefix) || strings.HasPrefix(row.prefix, pairSitePrefix) {
			t.Errorf("prefix %q collides with %q", row.prefix, pairSitePrefix)
		}
		// A dotted error-return site ID has no '/'; every prefix opens with
		// its family segment and a '/'.
		if !IsEnvSite(row.prefix) && !IsPartialSite(row.prefix) {
			t.Errorf("prefix %q can match a dotted site ID", row.prefix)
		}
		f, _ := ParsePseudo(PseudoSiteID(row.class, "n1", "n2"))
		m := logdiff.Sanitize(f.Marker())
		if prev, dup := markers[m]; dup {
			t.Errorf("%s and %s share the sanitized marker %q", prev, row.class, m)
		}
		markers[m] = row.class
	}
	if id := PseudoSiteID("no-such-class", "a", "b"); id != "" {
		t.Errorf("unknown class built the site ID %q", id)
	}
}

// TestPlanNeeds pins the activation rule: a plan needs exactly the
// features its members use (a path needs PathAddressing, an env/ or
// partial/ site its family — whichever index the plan files the member
// under, and a pair through its two members), and nil needs nothing.
func TestPlanNeeds(t *testing.T) {
	site := Instance{Site: "a.x", Occurrence: 1}
	sitePath := Instance{Site: "a.x", Path: "r>a.x#1"}
	env := Instance{Site: "env/crash/n1", Occurrence: 2}
	envPath := Instance{Site: "env/crash/n1", Occurrence: 2, Path: "env/crash/n1#2"}
	part := Instance{Site: "partial/disk/short-write/a.x", Occurrence: 1}
	partPath := Instance{Site: "partial/net/dup-deliver/a>b", Occurrence: 1, Path: "partial/net/dup-deliver/a>b#1"}

	cases := []struct {
		name string
		plan *Plan
		want Features
	}{
		{"nil", nil, 0},
		{"exact site", Exact(site), 0},
		{"exact site path", Exact(sitePath), PathAddressing},
		{"exact env", Exact(env), EnvFaults},
		{"exact env path", Exact(envPath), EnvFaults | PathAddressing},
		{"exact partial", Exact(part), PartialFaults},
		{"exact pair", Exact(PairInstance(env, sitePath)), EnvFaults | PathAddressing},
		{"window empty", Window(nil), 0},
		{"window site", Window([]Instance{site}), 0},
		{"window mixed", Window([]Instance{site, env, part}), EnvFaults | PartialFaults},
		{"window env path", Window([]Instance{envPath}), EnvFaults | PathAddressing},
		{"window partial path", Window([]Instance{site, partPath}), PartialFaults | PathAddressing},
		{"multi", Exact(site, part, envPath), EnvFaults | PartialFaults | PathAddressing},
		{"multi site-only", Exact(site, site), 0},
		{"pair site", Window([]Instance{PairInstance(site, site)}), 0},
		{"pair env", Window([]Instance{PairInstance(site, env)}), EnvFaults},
		{"pair env path", Window([]Instance{PairInstance(sitePath, envPath)}), EnvFaults | PathAddressing},
		{"pair partial path", Window([]Instance{PairInstance(site, site), PairInstance(sitePath, partPath)}), PartialFaults | PathAddressing},
	}
	for _, c := range cases {
		if c.plan != nil && c.plan.Features() != c.want {
			t.Errorf("%s: needs %03b, want %03b", c.name, c.plan.Features(), c.want)
		}
		r := NewRuntime(c.plan)
		for _, f := range []Features{EnvFaults, PartialFaults, PathAddressing} {
			if r.Active(f) != (c.want&f != 0) {
				t.Errorf("%s: runtime Active(%03b)=%v, want %v", c.name, f, r.Active(f), c.want&f != 0)
			}
		}
	}
}

// TestPathAddressedPseudoInstanceSelfActivates is the regression test for
// a window that files a path-addressed env or partial instance under its
// path index only: the runtime must still activate the instance's family
// from the plan alone — no Enable — exactly as Exact of the same instance
// always did, or replaying the window silently injects nothing.
func TestPathAddressedPseudoInstanceSelfActivates(t *testing.T) {
	other := Instance{Site: "a.x", Occurrence: 99}
	for _, site := range []string{"env/crash/zk1", "partial/disk/torn-rename/dfs.rename"} {
		inst := Instance{Site: site, Occurrence: 1, Path: site + "#1"}
		plans := map[string]*Plan{
			"Exact":       Exact(inst),
			"Window":      Window([]Instance{other, inst}),
			"pair Window": Window([]Instance{PairInstance(other, inst)}),
		}
		for name, plan := range plans {
			f, ok := NewRuntime(plan).ReachPseudo(site, 7)
			if !ok {
				t.Errorf("%s of path-addressed %s did not inject", name, site)
				continue
			}
			if f.Site() != site || f.Occurrence != 1 || f.Amp != 7 {
				t.Errorf("%s of %s injected %+v", name, site, f)
			}
		}
	}
}

// TestPseudoHandleMatchesName holds a resolved handle to the ID it stands
// for: for every row, with its family on and off, under path addressing
// and a plan that injects, reaching by handle counts, traces and injects
// exactly what reaching by name does — also with handles taken before a
// Reset and used after it, the way the network and disk keep them. A
// malformed ID's handle, or a row whose family is off, counts and traces
// nothing.
func TestPseudoHandleMatchesName(t *testing.T) {
	var ids []string
	for _, row := range pseudoTable {
		ids = append(ids, PseudoSiteID(row.class, "s1", "p2"))
		if row.sep == "" {
			ids = append(ids, row.prefix) // no operand: malformed
		} else {
			ids = append(ids, row.prefix+"s1"+row.sep) // no peer: malformed
		}
	}
	ids = append(ids, "env/no-such-class/s1", "a.dotted.site")

	type outcome struct {
		f  PseudoFault
		ok bool
	}
	for _, features := range []Features{0, EnvFaults, PartialFaults, EnvFaults | PartialFaults | PathAddressing} {
		for _, planned := range []bool{false, true} {
			plan := func() *Plan {
				if !planned {
					return nil
				}
				var insts []Instance
				for _, row := range pseudoTable {
					insts = append(insts, Instance{Site: PseudoSiteID(row.class, "s1", "p2"), Occurrence: 2})
				}
				return Exact(insts...)
			}
			byName := NewRuntime(plan())
			byName.Enable(features)
			byHandle := NewRuntime(nil)
			handles := make([]PseudoHandle, len(ids))
			for i, id := range ids {
				handles[i] = byHandle.Pseudo(id)
			}
			byHandle.Reset(plan())
			byHandle.Enable(features)

			var gotName, gotHandle []outcome
			for round := 0; round < 3; round++ {
				for i, id := range ids {
					f, ok := byName.ReachPseudo(id, 10*round+i)
					gotName = append(gotName, outcome{f, ok})
					f, ok = byHandle.ReachPseudoAt(handles[i], 10*round+i)
					gotHandle = append(gotHandle, outcome{f, ok})
				}
			}
			name := func(what string) string { return fmt.Sprintf("features %03b, plan %v: %s", features, planned, what) }
			if !slices.Equal(gotName, gotHandle) {
				t.Errorf("%s", name("faults differ by handle and by name"))
			}
			if !maps.Equal(byName.Counts(), byHandle.Counts()) {
				t.Errorf("%s: %v, by name %v", name("counts by handle"), byHandle.Counts(), byName.Counts())
			}
			if !slices.EqualFunc(byName.TraceChunks(), byHandle.TraceChunks(), slices.Equal) ||
				!slices.Equal(byName.InjectedAll(), byHandle.InjectedAll()) {
				t.Errorf("%s", name("traces differ by handle and by name"))
			}
			for i, id := range ids {
				want := ""
				if _, ok := ParsePseudo(id); ok {
					want = id
				}
				if handles[i].Site() != want {
					t.Errorf("%s: %q resolved to the handle of %q", name("resolve"), id, handles[i].Site())
				}
			}
			for _, ev := range slices.Concat(byHandle.TraceChunks()...) {
				f, ok := ParsePseudo(ev.Site)
				if !ok || !byHandle.Active(f.Family) {
					t.Errorf("%s: %s traced", name("malformed or inactive"), ev.Site)
				}
			}
			for site := range byHandle.Counts() {
				if f, ok := ParsePseudo(site); !ok || !byHandle.Active(f.Family) {
					t.Errorf("%s: %s counted", name("malformed or inactive"), site)
				}
			}
			if planned && len(byHandle.InjectedAll()) != len(pseudoTable) {
				t.Errorf("%s: %d injections, want one per row", name("plan"), len(byHandle.InjectedAll()))
			}
			if features == 0 && !planned && (len(byHandle.Counts()) != 0 || len(byHandle.TraceChunks()) != 0) {
				t.Errorf("%s: counted %v", name("all families off"), byHandle.Counts())
			}
		}
	}
}
