package main

import (
	"reflect"
	"strings"
	"testing"

	"anduril/internal/core"
)

// TestDescribeFaults: replay reads its script from outside the program.
// Every shape of fault is listed by the address it will actually fire at,
// and a script naming a fault no run can reach fails at load.
func TestDescribeFaults(t *testing.T) {
	cases := []struct {
		name, faults string
		want         []string
		wantErr      string
	}{
		{"site", `[{"Site":"zk.sync.append-txn","Occurrence":3}]`,
			[]string{"zk.sync.append-txn at occurrence 3"}, ""},
		{"path-addressed", `[{"Site":"dyn.store.persist","Occurrence":7,"Path":"client.put>coord.write[2]>dyn.store.persist#1"}]`,
			[]string{"dyn.store.persist at path client.put>coord.write[2]>dyn.store.persist#1"}, ""},
		{"pair", `[{"Site":"pair/env/crash/zk2+zk.sync.append-txn","Occurrence":5,"Path":"env/crash/zk2#1+zk.sync.append-txn:2"}]`,
			[]string{"pair of env/crash/zk2 at path env/crash/zk2#1 and zk.sync.append-txn at occurrence 2"}, ""},
		{"malformed", `[{"Site":"zk.sync.append-txn","Occurrence":0}]`, nil, "needs an occurrence >= 1 or a path"},
	}
	for _, c := range cases {
		sf, err := core.LoadScript([]byte(`{"target":"t","faults":` + c.faults + `}`))
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: LoadScript err = %v, want it to name %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got := describeFaults(sf); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: listing %q, want %q", c.name, got, c.want)
		}
	}
}
