// Package oracle implements user-defined failure oracles (§2, input 4).
//
// An oracle encapsulates the key failure symptoms: a specific log message,
// a thread stuck at a particular point (the stack-trace symptom), or an
// external state such as a missing or corrupted file. The explorer declares
// a failure reproduced exactly when the oracle is satisfied by a round's
// result.
package oracle

import (
	"fmt"
	"strings"

	"anduril/internal/cluster"
	"anduril/internal/des"
)

// Oracle judges whether a round reproduced the target failure. The Result
// Check is shown is valid only for the duration of the call: a search
// builds its next round on the memory of a judged one (cluster.Result.
// Release), so a Check must read what it needs and keep nothing of it.
type Oracle struct {
	Name  string
	Check func(*cluster.Result) bool
}

// Satisfied evaluates the oracle against a round result.
func (o Oracle) Satisfied(r *cluster.Result) bool { return o.Check(r) }

// LogContains is satisfied when the round's log contains the given message
// fragment (digit-insensitive, like the explorer's sanitizer).
func LogContains(fragment string) Oracle {
	return Oracle{
		Name:  fmt.Sprintf("log contains %q", fragment),
		Check: func(r *cluster.Result) bool { return r.LogContains(fragment) },
	}
}

// LogContainsExact is satisfied when the round's log contains the fragment
// verbatim (digit-sensitive; use when ids like "rs2" matter).
func LogContainsExact(fragment string) Oracle {
	return Oracle{
		Name:  fmt.Sprintf("log contains exactly %q", fragment),
		Check: func(r *cluster.Result) bool { return r.LogContainsExact(fragment) },
	}
}

// ThreadStuck is satisfied when some actor is blocked on the given
// condition label at the end of the run — the analog of "the stack trace
// shows the log roller stuck at waitForSafePoint".
func ThreadStuck(label string) Oracle {
	return Oracle{
		Name:  fmt.Sprintf("thread stuck at %q", label),
		Check: func(r *cluster.Result) bool { return r.BlockedOn(label) },
	}
}

// FileMissing is satisfied when the given path does not exist on the
// simulated disk — an external-state symptom (e.g. a lost checkpoint).
func FileMissing(path string) Oracle {
	return Oracle{
		Name:  fmt.Sprintf("file %q missing", path),
		Check: func(r *cluster.Result) bool { return !r.Env.Disk.Exists(path) },
	}
}

// FileExists is satisfied when the given path exists on the simulated disk
// (e.g. a corruption marker written by a verifier).
func FileExists(path string) Oracle {
	return Oracle{
		Name:  fmt.Sprintf("file %q exists", path),
		Check: func(r *cluster.Result) bool { return r.Env.Disk.Exists(path) },
	}
}

// ConvergedWithin is the eventual-consistency oracle: satisfied when the
// round's convergence probe reports that every replica agrees with the
// acknowledged client state and the agreement held from virtual time d or
// earlier. Eventually-consistent targets (internal/sys/dyn) register the
// probe via cluster.Env.RegisterConvergence; anti-entropy failures are
// expressed as Not(ConvergedWithin(bound)) — the system either never
// converged or only converged after the bound — rather than as an
// immediate invariant violation.
func ConvergedWithin(d des.Time) Oracle {
	return Oracle{
		Name: fmt.Sprintf("replicas converged within %v", d),
		Check: func(r *cluster.Result) bool {
			c := r.Convergence
			return c.Tracked && c.Converged && c.Since <= d
		},
	}
}

// Diverged is the complementary anti-entropy oracle: satisfied when the
// target registered a convergence probe and the replicas never agreed
// with the acknowledged client state by the end of the run. Unlike
// Not(ConvergedWithin(d)) it is indifferent to *when* agreement happened
// — only that it never did — which pins permanent divergence symptoms
// such as a resurrected delete.
func Diverged() Oracle {
	return Oracle{
		Name: "replicas diverged",
		Check: func(r *cluster.Result) bool {
			c := r.Convergence
			return c.Tracked && !c.Converged
		},
	}
}

// Predicate wraps an arbitrary check.
func Predicate(name string, check func(*cluster.Result) bool) Oracle {
	return Oracle{Name: name, Check: check}
}

// And is satisfied when all sub-oracles are.
func And(os ...Oracle) Oracle {
	names := make([]string, len(os))
	for i, o := range os {
		names[i] = o.Name
	}
	return Oracle{
		Name: strings.Join(names, " AND "),
		Check: func(r *cluster.Result) bool {
			for _, o := range os {
				if !o.Check(r) {
					return false
				}
			}
			return true
		},
	}
}

// Or is satisfied when any sub-oracle is.
func Or(os ...Oracle) Oracle {
	names := make([]string, len(os))
	for i, o := range os {
		names[i] = o.Name
	}
	return Oracle{
		Name: strings.Join(names, " OR "),
		Check: func(r *cluster.Result) bool {
			for _, o := range os {
				if o.Check(r) {
					return true
				}
			}
			return false
		},
	}
}

// Not inverts an oracle.
func Not(o Oracle) Oracle {
	return Oracle{
		Name:  "NOT " + o.Name,
		Check: func(r *cluster.Result) bool { return !o.Check(r) },
	}
}
