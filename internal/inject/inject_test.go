package inject

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNoPlanNeverInjects(t *testing.T) {
	r := NewRuntime(nil)
	for i := 0; i < 100; i++ {
		if err := r.Reach("s1", IO); err != nil {
			t.Fatalf("unexpected injection: %v", err)
		}
	}
	if c := r.Counts()["s1"]; c != 100 {
		t.Fatalf("count=%d", c)
	}
	if _, ok := r.Injected(); ok {
		t.Fatal("injected reported without plan")
	}
	if len(r.Trace()) != 100 {
		t.Fatalf("trace len=%d", len(r.Trace()))
	}
}

func TestExactPlanInjectsOnce(t *testing.T) {
	r := NewRuntime(Exact(Instance{Site: "s1", Occurrence: 3}))
	var faults []error
	for i := 0; i < 5; i++ {
		if err := r.Reach("s1", Timeout); err != nil {
			faults = append(faults, err)
		}
	}
	if len(faults) != 1 {
		t.Fatalf("faults=%d, want 1", len(faults))
	}
	f, ok := AsFault(faults[0])
	if !ok || f.Site != "s1" || f.Occurrence != 3 || f.Kind != Timeout {
		t.Fatalf("fault: %+v", f)
	}
	ev, ok := r.Injected()
	if !ok || ev.Occurrence != 3 || !ev.Injected {
		t.Fatalf("injected event: %+v ok=%v", ev, ok)
	}
}

func TestExactPlanWrongSite(t *testing.T) {
	r := NewRuntime(Exact(Instance{Site: "other", Occurrence: 1}))
	for i := 0; i < 10; i++ {
		if err := r.Reach("s1", IO); err != nil {
			t.Fatalf("injected at wrong site: %v", err)
		}
	}
}

func TestWindowPlanFirstReachedWins(t *testing.T) {
	r := NewRuntime(Window([]Instance{
		{Site: "a", Occurrence: 2},
		{Site: "b", Occurrence: 1},
	}))
	if err := r.Reach("a", IO); err != nil {
		t.Fatalf("a#1 should not inject: %v", err)
	}
	if err := r.Reach("b", Socket); err == nil {
		t.Fatal("b#1 should inject")
	}
	// After one injection the runtime stops injecting.
	if err := r.Reach("a", IO); err != nil {
		t.Fatalf("a#2 injected after window consumed: %v", err)
	}
	ev, _ := r.Injected()
	if ev.Site != "b" || ev.Occurrence != 1 {
		t.Fatalf("injected: %+v", ev)
	}
}

func TestFaultErrorsIsMatching(t *testing.T) {
	var err error = &Fault{Kind: IO, Site: "s", Occurrence: 1}
	if !errors.Is(err, KindErr(IO)) {
		t.Fatal("kind match failed")
	}
	if errors.Is(err, KindErr(Timeout)) {
		t.Fatal("kind mismatch matched")
	}
	wrapped := fmt.Errorf("sync failed: %w", err)
	if !errors.Is(wrapped, KindErr(IO)) {
		t.Fatal("wrapped kind match failed")
	}
	f, ok := AsFault(wrapped)
	if !ok || f.Site != "s" {
		t.Fatal("AsFault through wrap failed")
	}
}

// TestFaultErrorMatchesFmt: a fault renders as fmt's "%s at %s" rendered
// it; every log line that prints an injected error prints this.
func TestFaultErrorMatchesFmt(t *testing.T) {
	for _, f := range []*Fault{
		{},
		{Kind: IO, Site: "dfs.datanode.receiveBlock.write", Occurrence: 3},
		{Kind: TornRename, Site: "partial/torn-rename/zk.snap.rename"},
		{Kind: "Odd Kind %d", Site: "a at b"},
	} {
		if got, want := f.Error(), fmt.Sprintf("%s at %s", f.Kind, f.Site); got != want {
			t.Errorf("%+v.Error() = %q, want %q", *f, got, want)
		}
	}
}

// TestKindErrAllocatesNothing: a target matches a failed call's error by
// kind on every failure, so a declared Kind's prototype is shared, and it
// still matches exactly the faults of its kind.
func TestKindErrAllocatesNothing(t *testing.T) {
	var err error = &Fault{Kind: Socket, Site: "s", Occurrence: 2}
	if n := testing.AllocsPerRun(100, func() {
		if !errors.Is(err, KindErr(Socket)) || errors.Is(err, KindErr(Timeout)) {
			t.Fatal("kind matching changed")
		}
	}); n != 0 {
		t.Errorf("KindErr and errors.Is allocate %v objects a call, want 0", n)
	}
	for k, proto := range kindProtos {
		if *proto != (Fault{Kind: k}) || KindErr(k) != error(proto) {
			t.Errorf("prototype of %s is %+v", k, *proto)
		}
	}
	if !errors.Is(&Fault{Kind: "Undeclared"}, KindErr("Undeclared")) || errors.Is(err, KindErr("Undeclared")) {
		t.Error("an undeclared kind does not match by kind")
	}
}

func TestTraceRecordsPositions(t *testing.T) {
	pos := 0
	r := NewRuntime(nil)
	r.LogPos = func() int { return pos }
	r.Thread = func() string { return "worker" }
	r.Reach("s", IO)
	pos = 7
	r.Reach("s", IO)
	tr := r.Trace()
	if tr[0].LogPos != 0 || tr[1].LogPos != 7 {
		t.Fatalf("logpos: %d %d", tr[0].LogPos, tr[1].LogPos)
	}
	if tr[0].Thread != "worker" || tr[1].Occurrence != 2 {
		t.Fatalf("trace: %+v", tr)
	}
}

func TestKeepTraceOff(t *testing.T) {
	r := NewRuntime(Exact(Instance{Site: "s", Occurrence: 2}))
	r.KeepTrace = false
	r.Reach("s", IO)
	r.Reach("s", IO)
	if len(r.Trace()) != 0 {
		t.Fatalf("trace kept: %d", len(r.Trace()))
	}
	if ev, ok := r.Injected(); !ok || ev.Occurrence != 2 {
		t.Fatalf("injection not recorded: %+v %v", ev, ok)
	}
}

func TestDecisionsCounted(t *testing.T) {
	r := NewRuntime(Exact(Instance{Site: "s", Occurrence: 100}))
	for i := 0; i < 50; i++ {
		r.Reach("s", IO)
	}
	n, _ := r.Decisions()
	if n != 50 {
		t.Fatalf("decisions=%d, want 50", n)
	}
}

// Property: occurrences are dense, 1-based, and per-site independent.
func TestOccurrenceProperty(t *testing.T) {
	f := func(reaches []uint8) bool {
		r := NewRuntime(nil)
		want := map[string]int{}
		for _, b := range reaches {
			site := fmt.Sprintf("site-%d", b%5)
			want[site]++
			r.Reach(site, IO)
		}
		for s, n := range want {
			if r.Counts()[s] != n {
				return false
			}
		}
		// Trace occurrences per site must be 1..n in order.
		seen := map[string]int{}
		for _, ev := range r.Trace() {
			seen[ev.Site]++
			if ev.Occurrence != seen[ev.Site] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: an Exact plan injects iff the instance is reached, and exactly once.
func TestExactPlanProperty(t *testing.T) {
	f := func(occ uint8, total uint8) bool {
		target := int(occ%20) + 1
		n := int(total % 40)
		r := NewRuntime(Exact(Instance{Site: "s", Occurrence: target}))
		injections := 0
		for i := 0; i < n; i++ {
			if r.Reach("s", IO) != nil {
				injections++
			}
		}
		if n >= target {
			return injections == 1
		}
		return injections == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiPlanBudgetAndNilSubplans(t *testing.T) {
	// The budget is the members that can actually fire: none for an Exact
	// of nothing, which never injects.
	if b := Exact().Budget(); b != 0 {
		t.Fatalf("empty Exact budget=%d, want 0", b)
	}
	if NewRuntime(Exact()).Reach("a", IO) != nil {
		t.Fatal("empty Exact injected")
	}
	plan := Exact(Instance{Site: "a", Occurrence: 1}, Instance{Site: "b", Occurrence: 9})
	if b := plan.Budget(); b != 2 {
		t.Fatalf("budget=%d, want 2", b)
	}
	r := NewRuntime(plan)
	if r.Reach("a", IO) == nil {
		t.Fatal("a#1 should inject")
	}
	// Each member fires at most once.
	if r.Reach("a", IO) != nil {
		t.Fatal("a#2 should not inject")
	}
}

func TestFaultIsMatchesSiteAndKind(t *testing.T) {
	var err error = &Fault{Kind: Socket, Site: "net.op", Occurrence: 2}
	if !errors.Is(err, &Fault{}) {
		t.Fatal("empty prototype should match any fault")
	}
	if !errors.Is(err, &Fault{Site: "net.op"}) {
		t.Fatal("site-only prototype should match")
	}
	if errors.Is(err, &Fault{Site: "other"}) {
		t.Fatal("wrong site matched")
	}
	if errors.Is(err, errors.New("plain")) {
		t.Fatal("non-fault target matched")
	}
}

func TestWindowEmptyNeverInjects(t *testing.T) {
	r := NewRuntime(Window(nil))
	for i := 0; i < 10; i++ {
		if r.Reach("s", IO) != nil {
			t.Fatal("empty window injected")
		}
	}
}

// Counts hands back a copy: mutating it must not corrupt the runtime's
// occurrence numbering or subsequent plan decisions.
func TestCountsReturnsCopy(t *testing.T) {
	r := NewRuntime(Exact(Instance{Site: "s", Occurrence: 3}))
	if err := r.Reach("s", IO); err != nil {
		t.Fatalf("occ 1 injected: %v", err)
	}
	c := r.Counts()
	c["s"] = 100
	c["phantom"] = 7
	delete(c, "s")
	if err := r.Reach("s", IO); err != nil {
		t.Fatalf("occ 2 injected after Counts mutation: %v", err)
	}
	if err := r.Reach("s", IO); err == nil {
		t.Fatal("occ 3 should inject; Counts mutation corrupted the numbering")
	}
	fresh := r.Counts()
	if fresh["s"] != 3 {
		t.Fatalf("counts[s]=%d, want 3", fresh["s"])
	}
	if _, ok := fresh["phantom"]; ok {
		t.Fatal("mutation of the returned map leaked into the runtime")
	}
}

func TestMultiPlanNestedBudgetSums(t *testing.T) {
	pair := PairInstance(Instance{Site: "a", Occurrence: 1}, Instance{Site: "b", Occurrence: 1})
	outer := Exact(pair, Instance{Site: "c", Occurrence: 1})
	if b := outer.Budget(); b != 3 {
		t.Fatalf("nested budget=%d, want 3 (sum of parts)", b)
	}
	// Every member may fire once: the pair inside is not capped at one.
	r := NewRuntime(outer)
	for _, site := range []string{"a", "b", "c"} {
		if err := r.Reach(site, IO); err == nil {
			t.Fatalf("%s#1 should inject", site)
		}
	}
	if n := len(r.InjectedAll()); n != 3 {
		t.Fatalf("injected %d faults, want 3", n)
	}
}

func TestRuntimeHooksOptional(t *testing.T) {
	// A runtime with no LogPos/Thread/Now hooks must still trace safely.
	r := NewRuntime(Exact(Instance{Site: "s", Occurrence: 1}))
	if err := r.Reach("s", IO); err == nil {
		t.Fatal("should inject")
	}
	ev, ok := r.Injected()
	if !ok || ev.Thread != "" || ev.LogPos != 0 {
		t.Fatalf("event: %+v", ev)
	}
}

// TestResetMatchesNewRuntime: a runtime Reset to a plan answers like
// NewRuntime(plan), whatever it counted before — occurrences restart at one,
// a site the new run has not reached is absent from Counts and Kind, a
// pseudo-site whose family the new run does not have is not counted even
// though its record is still in the table, and the kept trace is gone.
func TestResetMatchesNewRuntime(t *testing.T) {
	crash := PseudoSiteID(EnvCrash, "n1", "")
	short := PseudoSiteID(PartialShortWrite, "s.write", "")
	plan := func() *Plan { return Exact(Instance{Site: "s.b", Occurrence: 2}) } // a plan holds its run's state

	drive := func(r *Runtime) (faults []string) {
		for i := 0; i < 3; i++ {
			for _, site := range []string{"s.a", "s.b"} {
				if err := r.Reach(site, Timeout); err != nil {
					faults = append(faults, err.Error())
				}
			}
			r.ReachPseudoAt(r.Pseudo(crash), 0)
			r.ReachPseudoAt(r.Pseudo(short), 9)
		}
		return faults
	}
	used := NewRuntime(Exact(Instance{Site: crash, Occurrence: 1}))
	used.Enable(EnvFaults | PartialFaults | PathAddressing)
	used.Reach("s.gone", IO)
	drive(used)
	used.Reset(plan())
	used.Enable(PartialFaults)

	fresh := NewRuntime(plan())
	fresh.Enable(PartialFaults)
	if !used.KeepTrace || len(used.Trace()) != 0 || used.Active(EnvFaults) || used.Active(PathAddressing) {
		t.Fatalf("Reset left KeepTrace=%v, %d trace events, features %b", used.KeepTrace, len(used.Trace()), used.features)
	}
	if len(used.Counts()) != 0 {
		t.Fatalf("Reset left sites behind: %v", used.Counts())
	}
	got, want := drive(used), drive(fresh)
	if !reflect.DeepEqual(got, want) || len(want) != 1 {
		t.Fatalf("faults after Reset %v, fresh %v", got, want)
	}
	if !reflect.DeepEqual(used.Counts(), fresh.Counts()) || used.Counts()[crash] != 0 || used.Counts()[short] != 3 {
		t.Fatalf("counts after Reset %v, fresh %v", used.Counts(), fresh.Counts())
	}
	if !reflect.DeepEqual(used.Trace(), fresh.Trace()) || !reflect.DeepEqual(used.InjectedAll(), fresh.InjectedAll()) {
		t.Fatalf("trace after Reset:\n%+v\nfresh:\n%+v", used.Trace(), fresh.Trace())
	}
	n, _ := used.Decisions()
	if m, _ := fresh.Decisions(); n != m || n == 0 {
		t.Fatalf("decisions after Reset %d, fresh %d", n, m)
	}
}

// TestResetAcrossDisjointSiteSets: a runtime that ran one set of sites and is
// Reset for a run of another — a recycled environment that served another
// target — counts and traces exactly what a fresh runtime does: Counts holds
// only the new run's sites, however many records the table keeps, and the
// kept trace, written into the earlier run's chunks, is the fresh one.
func TestResetAcrossDisjointSiteSets(t *testing.T) {
	drive := func(r *Runtime, prefix string, sites, reaches int) {
		for i := 0; i < reaches; i++ {
			r.Reach(fmt.Sprintf("%s.%d", prefix, i%sites), IO)
		}
	}
	used := NewRuntime(nil)
	drive(used, "old", 40, 3*TraceChunk+7)
	oldChunk := &used.TraceChunks()[0][0]
	used.Reset(nil)
	drive(used, "new", 5, 2*TraceChunk+3)

	fresh := NewRuntime(nil)
	drive(fresh, "new", 5, 2*TraceChunk+3)
	if got, want := used.Counts(), fresh.Counts(); !reflect.DeepEqual(got, want) || len(want) != 5 {
		t.Fatalf("counts after Reset %v, fresh %v", got, want)
	}
	if !reflect.DeepEqual(used.Trace(), fresh.Trace()) {
		t.Fatal("trace after Reset differs from the fresh runtime's")
	}
	if &used.TraceChunks()[0][0] != oldChunk {
		t.Fatal("Reset dropped the kept trace's chunks: a warm run re-allocates its timeline")
	}
}
