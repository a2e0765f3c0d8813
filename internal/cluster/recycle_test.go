package cluster_test

import (
	"reflect"
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/failures"
	"anduril/internal/inject"
	"anduril/internal/logging"
)

// digest is everything of a round an oracle or the explorer can read.
type digest struct {
	Log         string
	IDs         []int32
	Blocked     []string
	Counts      map[string]int
	Injected    inject.TraceEvent
	Path        string
	DidInject   bool
	Events      int
	Requests    int
	Convergence cluster.Convergence
	Files       map[string]string
}

func digestOf(r *cluster.Result) digest {
	d := digest{
		Log: r.RenderLog(), Blocked: r.Env.Sim.Blocked(), Counts: r.Env.FI.Counts(),
		Events: r.Events, Convergence: r.Convergence, Files: map[string]string{},
	}
	d.Injected, d.DidInject = r.Env.FI.Injected()
	d.Path = r.Env.FI.PathOf(d.Injected.Site, d.Injected.Addr)
	d.Requests, _ = r.Env.FI.Decisions()
	for _, e := range r.Entries {
		d.IDs = append(d.IDs, e.ID())
	}
	for _, path := range r.Env.Disk.List("") {
		data, _ := r.Env.Disk.Peek(path)
		d.Files[path] = string(data)
	}
	return d
}

// TestRecycledEnvMatchesFresh: a round run in an environment another round
// has used — another target's round, under other features and another plan,
// left with every node the next run will name crashed, down, partitioned
// and under a stale crash control — is the round a fresh environment runs,
// in everything a reader of its Result can see. Every dataset workload takes
// the recycled side once, injected at its free run's first node crash.
func TestRecycledEnvMatchesFresh(t *testing.T) {
	all := failures.All()
	for i, s := range all {
		// The environment was last used by the previous scenario or by this
		// one, with every feature on; the recycled round has fewer.
		prev := all[(i+len(all)-1+i%2)%len(all)]
		const every = inject.EnvFaults | inject.PartialFaults | inject.PathAddressing
		feats := every &^ []inject.Features{0, inject.PartialFaults, inject.PathAddressing}[i%3]
		t.Run(s.ID, func(t *testing.T) {
			free, err := cluster.Run(nil, nil, 3, nil, s.Workload, s.Horizon, feats)
			if err != nil {
				t.Fatal(err)
			}
			trace := free.Env.FI.Trace()
			var crash *inject.TraceEvent
			for j := range trace {
				if f, ok := inject.ParsePseudo(trace[j].Site); ok && f.Class == inject.EnvCrash {
					crash = &trace[j]
					break
				}
			}
			if crash == nil {
				t.Fatal("the free run reached no crash pseudo-site")
			}
			fault := inject.Instance{Site: crash.Site, Occurrence: crash.Occurrence, Path: free.Env.FI.PathOf(crash.Site, crash.Addr)}

			fresh, err := cluster.Run(nil, nil, 3, inject.Exact(fault), s.Workload, s.Horizon, feats)
			if err != nil {
				t.Fatal(err)
			}
			dirty, err := cluster.Run(nil, nil, 11, nil, prev.Workload, prev.Horizon, every)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range trace {
				dirty.Env.Sim.Crash(ev.Thread)
				switch f, _ := inject.ParsePseudo(ev.Site); f.Class {
				case inject.EnvCrash:
					dirty.Env.Net.SetDown(f.Subject, true)
					dirty.Env.RegisterNode(f.Subject, cluster.NodeControl{Crash: func() { t.Error("a stale node control ran") }})
				case inject.EnvPartition:
					dirty.Env.Net.Partition(f.Subject, f.Peer, true)
				}
			}
			dirty.Env.RegisterConvergence(func() cluster.Convergence { return cluster.Convergence{Tracked: true} })
			got, err := cluster.Run(nil, dirty.Release(), 3, inject.Exact(fault), s.Workload, s.Horizon, feats)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := got.Env.FI.Injected(); !ok {
				t.Fatalf("fault %+v did not fire", fault)
			}
			if g, w := digestOf(got), digestOf(fresh); !reflect.DeepEqual(g, w) {
				t.Fatalf("the recycled round differs from the fresh one:\nrecycled: %+v\nfresh:    %+v", g, w)
			}
			for j, e := range got.Entries {
				if e.ID() != logging.SanitizeID(e.Msg) {
					t.Fatalf("entry %d %q carries id %d, its message sanitizes to %d", j, e.Msg, e.ID(), logging.SanitizeID(e.Msg))
				}
			}
		})
	}
}

// TestReleasePoisonsResult: a released Result no longer reaches the log or
// the environment the next round overwrites; a reader that kept it fails
// loudly.
func TestReleasePoisonsResult(t *testing.T) {
	s, _ := failures.ByID("f3")
	res, err := cluster.Run(nil, nil, 1, nil, s.Workload, s.Horizon, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) == 0 || res.Env == nil {
		t.Fatal("fixture run produced nothing")
	}
	env := res.Release()
	if env == nil || res.Env != nil || res.Entries != nil {
		t.Fatalf("Release returned %v and left Env=%v, %d entries", env, res.Env, len(res.Entries))
	}
	if res.LogContains("") {
		t.Fatal("a released result still matches log fragments")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("rendering a released result's log did not panic")
		}
	}()
	_ = res.RenderLog()
}
