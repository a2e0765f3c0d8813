package core

import (
	"encoding/json"
	"fmt"
	"time"

	"anduril/internal/inject"
)

// ScriptFile is the serializable reproduction artifact of workflow step
// 4.a: everything needed to deterministically re-trigger the failure, plus
// the provenance of the search that found it.
//
// Seed is the environment seed the faults reproduce under — the seed of the
// search's reproducing round (Report.ScriptSeed): a site's n-th occurrence
// is a different dynamic instance under another seed, so the script replays
// under this one. A file written before the field existed loads with Seed
// 1, what replay ran every script under then.
type ScriptFile struct {
	Target      string            `json:"target"`
	Issue       string            `json:"issue,omitempty"`
	Strategy    Strategy          `json:"strategy"`
	Faults      []inject.Instance `json:"faults"`
	Seed        int64             `json:"seed"`
	Rounds      int               `json:"rounds"`
	Elapsed     string            `json:"elapsed"`
	Observables int               `json:"relevant_observables"`
	Sites       int               `json:"candidate_sites"`
	Instances   int               `json:"candidate_instances"`
	GeneratedBy string            `json:"generated_by"`
}

// ScriptOf extracts the reproduction artifact from a report.
func ScriptOf(r *Report) (*ScriptFile, error) {
	if r == nil || !r.Reproduced || r.Script == nil {
		return nil, fmt.Errorf("core: no reproduction to export")
	}
	return &ScriptFile{
		Target:      r.Target,
		Issue:       r.Issue,
		Strategy:    r.Strategy,
		Faults:      []inject.Instance{*r.Script},
		Seed:        r.ScriptSeed,
		Rounds:      r.Rounds,
		Elapsed:     r.Elapsed.Round(time.Microsecond).String(),
		Observables: r.RelevantObservables,
		Sites:       r.CandidateSites,
		Instances:   r.CandidateInstances,
		GeneratedBy: "anduril (feedback-driven fault injection)",
	}, nil
}

// Summary tells a person how a search ended, one line per fact, in the
// words every front end prints: the verdict, which on a reproduction names
// the fault the script injects (anduril.Script). A miss adds the closest
// injection and, when rootSite names the target's ground-truth root, how
// the search ranked that site and whether a round injected it. It reads
// only what a stored report keeps, so a daemon client prints what the CLI
// printed for the same spec.
func Summary(r *Report, rootSite string) []string {
	switch {
	case r.Interrupted:
		return []string{fmt.Sprintf("INTERRUPTED after %d rounds; re-run to search again", r.Rounds)}
	case r.Reproduced && r.Script != nil:
		return []string{fmt.Sprintf("REPRODUCED in %d rounds: inject %s", r.Rounds, r.Script)}
	}
	lines := []string{fmt.Sprintf("NOT reproduced after %d rounds: %s", r.Rounds, r.Reason)}
	if r.BestPartial != nil {
		lines = append(lines, fmt.Sprintf("closest injection: %s, leaving %d of %d relevant observables missing",
			r.BestPartial, r.BestPartialMissing, r.RelevantObservables))
	} else {
		lines = append(lines, "closest injection: none, no round judged an injection")
	}
	if rootSite == "" {
		return lines
	}
	var first, last *Round
	injectedIn := 0
	for i := range r.RoundLog {
		rd := &r.RoundLog[i]
		if rd.RootRank > 0 {
			if first == nil {
				first = rd
			}
			last = rd
		}
		if injectedIn == 0 && rd.Injected != nil && injectsSite(*rd.Injected, rootSite) {
			injectedIn = rd.N
		}
	}
	ranked, injected := "never ranked", "never injected"
	if first != nil {
		ranked = fmt.Sprintf("ranked %d in round %d and %d in round %d", first.RootRank, first.N, last.RootRank, last.N)
	}
	if injectedIn > 0 {
		injected = fmt.Sprintf("first injected in round %d", injectedIn)
	}
	return append(lines, fmt.Sprintf("root %s: %s, %s", rootSite, ranked, injected))
}

// injectsSite reports whether inst injects at site, itself or through one
// of its pair members.
func injectsSite(inst inject.Instance, site string) bool {
	a, b, _ := inject.PairMembers(inst)
	return inst.Site == site || a.Site == site || b.Site == site
}

// Marshal renders the artifact as indented JSON.
func (s *ScriptFile) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// LoadScript parses a serialized reproduction artifact.
func LoadScript(data []byte) (*ScriptFile, error) {
	s := ScriptFile{Seed: 1}
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("core: bad script file: %w", err)
	}
	if len(s.Faults) == 0 {
		return nil, fmt.Errorf("core: script file has no faults")
	}
	for i, f := range s.Faults {
		if err := checkFault(f); err != nil {
			return nil, fmt.Errorf("core: script file fault %d: %w", i+1, err)
		}
	}
	return &s, nil
}

// checkFault rejects a fault no run can ever reach, so a malformed script
// fails at load instead of replaying as "not reproduced".
func checkFault(f inject.Instance) error {
	if inject.IsPairSite(f.Site) {
		a, b, ok := inject.PairMembers(f)
		if !ok {
			return fmt.Errorf("pair %q: path %q does not name two members", f.Site, f.Path)
		}
		if err := checkFault(a); err != nil {
			return err
		}
		return checkFault(b)
	}
	if f.Site == "" || f.Occurrence < 1 && f.Path == "" {
		return fmt.Errorf("site %q needs an occurrence >= 1 or a path (occurrence %d)", f.Site, f.Occurrence)
	}
	if inject.IsEnvSite(f.Site) || inject.IsPartialSite(f.Site) {
		if _, ok := inject.ParsePseudo(f.Site); !ok {
			return fmt.Errorf("site %q is not a well-formed pseudo-site", f.Site)
		}
	}
	// A path is matched as the exact canonical string a run renders, so
	// one no run renders — "a[1]>s#1" for "a>s#1", a terminal that is not
	// the fault's own site — can never fire.
	if f.Path != "" {
		if addr, ok := inject.ParsePathAddr(f.Path); !ok || addr.Site != f.Site {
			return fmt.Errorf("site %q: path %q is not a canonical path address ending at the site", f.Site, f.Path)
		}
	}
	return nil
}
