package oracle

import (
	"testing"

	"anduril/internal/cluster"
	"anduril/internal/des"
)

// result builds a cluster.Result with the given log lines, a blocked
// thread, and a disk file.
func result(t *testing.T) *cluster.Result {
	t.Helper()
	w := func(env *cluster.Env) {
		cond := des.NewCond(env.Sim, "wait-ack")
		env.Sim.Go("writer-1", func() {
			env.Log.Infof("wrote 120 bytes to segment")
			env.Log.Errorf("sync timed out after 30s")
			env.Disk.Write("t.save", "state/checkpoint", []byte("x"))
			cond.Wait("writer-1", func() {})
		})
	}
	res, err := cluster.Run(nil, nil, 1, nil, w, des.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestLogContainsOracle(t *testing.T) {
	r := result(t)
	if !LogContains("sync timed out after 99s").Satisfied(r) {
		t.Fatal("sanitized match failed")
	}
	if LogContains("never logged").Satisfied(r) {
		t.Fatal("bogus match")
	}
	if !LogContainsExact("sync timed out after 30s").Satisfied(r) {
		t.Fatal("exact match failed")
	}
	if LogContainsExact("sync timed out after 99s").Satisfied(r) {
		t.Fatal("exact should be digit-sensitive")
	}
}

func TestThreadStuckOracles(t *testing.T) {
	r := result(t)
	if !ThreadStuck("wait-ack").Satisfied(r) {
		t.Fatal("ThreadStuck failed")
	}
	if ThreadStuck("other-label").Satisfied(r) {
		t.Fatal("wrong label matched")
	}
	if got := r.Env.Sim.Blocked(); len(got) != 1 || got[0] != "writer-1: wait-ack" {
		t.Fatalf("blocked: %v, want only writer-1 on wait-ack", got)
	}
}

func TestFileOracles(t *testing.T) {
	r := result(t)
	if !FileExists("state/checkpoint").Satisfied(r) {
		t.Fatal("FileExists failed")
	}
	if !FileMissing("state/other").Satisfied(r) {
		t.Fatal("FileMissing failed")
	}
	if FileMissing("state/checkpoint").Satisfied(r) {
		t.Fatal("FileMissing matched existing file")
	}
}

func TestCombinators(t *testing.T) {
	r := result(t)
	yes := LogContains("sync timed out")
	no := LogContains("never logged")
	if !And(yes, ThreadStuck("wait-ack")).Satisfied(r) {
		t.Fatal("And failed")
	}
	if And(yes, no).Satisfied(r) {
		t.Fatal("And with false branch matched")
	}
	if !Or(no, yes).Satisfied(r) {
		t.Fatal("Or failed")
	}
	if Or(no, no).Satisfied(r) {
		t.Fatal("Or all-false matched")
	}
	if !Not(no).Satisfied(r) {
		t.Fatal("Not failed")
	}
	if Not(yes).Satisfied(r) {
		t.Fatal("Not inverted wrong")
	}
	name := And(yes, no).Name
	if name == "" {
		t.Fatal("And name empty")
	}
}

func TestPredicate(t *testing.T) {
	r := result(t)
	p := Predicate("custom", func(res *cluster.Result) bool {
		return res.Env.Disk.Size("state/checkpoint") == 1
	})
	if !p.Satisfied(r) {
		t.Fatal("predicate failed")
	}
	if p.Name != "custom" {
		t.Fatalf("name: %q", p.Name)
	}
}
