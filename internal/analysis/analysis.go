// Package analysis is ANDURIL's Instrumenter retargeted to Go (§4).
//
// The original builds a static causal graph from JVM bytecode with Soot.
// Here the target systems are Go packages, so the analyzer parses their
// source with go/parser and reasons about the Go idioms that play the role
// of the JVM constructs:
//
//   - fault sites are calls into the simulated environment (Disk/Net
//     methods, FI.Reach) carrying a constant site-ID string — the analog of
//     library calls that may throw (external-exception nodes);
//   - `if err != nil { ... }` blocks are the catch blocks (handler nodes),
//     and the calls whose error was assigned to err are the throw sites;
//   - error-returning functions propagate faults to their callers
//     (internal-exception nodes), computed as a fixpoint over the call
//     graph — the interprocedural exception analysis of §4.1;
//   - cross-actor propagation flows through the simnet RPC idiom: a fault
//     escaping a message handler reaches the sender's continuation via
//     respond(err), matched by the constant message-type string — the
//     analog of the paper's Callable/Future analysis;
//   - other if-conditions become condition nodes whose causally-prior
//     statements are found by Pensieve-style jumping: any assignment in the
//     package set to a variable or field with the same name.
//
// The product is the causal graph of §4.1: source nodes are injectable
// fault sites, sink nodes are log statements.
package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"anduril/internal/graph"
	"anduril/internal/inject"
	"anduril/internal/parallel"
)

// SiteInfo describes one static fault site found in the source.
type SiteInfo struct {
	ID   string
	Kind inject.Kind
	File string
	Line int
	Func string
}

// LogInfo describes one log statement found in the source.
type LogInfo struct {
	Template string
	File     string
	Line     int
	Func     string
}

// Timing breaks down where analysis time went — the columns of Table 7.
type Timing struct {
	Exception time.Duration // interprocedural error-flow fixpoint
	Slicing   time.Duration // condition slicing (jump-strategy indexing)
	Chaining  time.Duration // causal-chain/graph assembly
	Total     time.Duration
}

// Result is the full output of analyzing one target system.
type Result struct {
	Graph  *graph.Graph
	Sites  []SiteInfo
	Logs   []LogInfo
	LOC    int
	Timing Timing

	// cache holds derived artifacts computed on first use and shared by
	// every reproduction over this Result. It sits behind a pointer so
	// Result values stay copyable (copies share the cache — they describe
	// the same analysis). Both artifacts are pure functions of the
	// analysis, so caching changes nothing observable — it only stops
	// each Reproduce call from recomputing a BFS table and recompiling
	// template regexps.
	cache *derivedCache
}

// derivedCache memoizes per-Result derived artifacts. Guarded by a mutex
// because parallel evaluation shares Targets (and thus Results) across
// goroutines.
type derivedCache struct {
	mu      sync.Mutex
	dist    map[string]map[string]int
	matcher *Matcher
}

// SiteDistances returns the L_{i,k} site→template distance table of the
// causal graph, computed once per Result. The returned map is shared:
// callers must treat it as read-only.
func (r *Result) SiteDistances() map[string]map[string]int {
	c := r.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dist == nil {
		c.dist = r.Graph.SiteDistances()
	}
	return c.dist
}

// Matcher returns the template matcher over this result's log templates,
// compiled once per Result and safe for concurrent use (Match does not
// mutate the matcher).
func (r *Result) Matcher() *Matcher {
	c := r.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.matcher == nil {
		c.matcher = r.newMatcher()
	}
	return c.matcher
}

func (r *Result) newMatcher() *Matcher {
	templates := make([]string, len(r.Logs))
	for i, l := range r.Logs {
		templates[i] = l.Template
	}
	return NewMatcher(templates)
}

// RepoRoot locates the module root so callers can hand source directories
// to AnalyzePackages from tests and binaries alike.
func RepoRoot() string {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		return "."
	}
	// file = <root>/internal/analysis/analysis.go
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

// AnalyzePackages parses every non-test Go file in the given directories
// (relative to the repo root or absolute) and builds the causal graph.
// Files are listed dirs as given, names sorted, and parsed on up to
// GOMAXPROCS workers into one FileSet without object resolution (nothing
// reads it). Later passes walk them in listed order and read positions only
// as file-relative token.Positions, so the Result is a pure function of the
// sources, whatever order the files took their FileSet bases in.
func AnalyzePackages(dirs []string) (*Result, error) {
	start := time.Now()
	var paths []string
	for _, dir := range dirs {
		abs := dir
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(RepoRoot(), dir)
		}
		entries, err := os.ReadDir(abs)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || filepath.Ext(name) != ".go" || strings.HasSuffix(name, "_test.go") {
				continue
			}
			paths = append(paths, filepath.Join(abs, name))
		}
	}
	fset := token.NewFileSet()
	files, err := parallel.Map(0, paths, func(_ int, path string) (*ast.File, error) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", path, err)
		}
		return f, nil
	})
	if err != nil {
		return nil, err
	}
	a, loc := newAnalyzer(fset), 0
	for _, f := range files {
		loc += fset.File(f.Pos()).LineCount()
		a.collect(f)
	}

	// Slicing index: assignments by name (the jump-strategy table).
	sliceStart := time.Now()
	a.indexAssignments()
	slicing := time.Since(sliceStart)

	// Exception analysis: escape fixpoint.
	excStart := time.Now()
	a.computeEscapes()
	exception := time.Since(excStart)

	// Chaining: emit the causal graph.
	chainStart := time.Now()
	g := a.buildGraph()
	chaining := time.Since(chainStart)

	res := &Result{
		Graph: g,
		Sites: a.siteList(),
		Logs:  a.logList(),
		LOC:   loc,
		cache: &derivedCache{},
	}
	res.Timing = Timing{
		Exception: exception,
		Slicing:   slicing,
		Chaining:  chaining,
		Total:     time.Since(start),
	}
	sort.Slice(res.Sites, func(i, j int) bool { return res.Sites[i].ID < res.Sites[j].ID })
	sort.Slice(res.Logs, func(i, j int) bool {
		if res.Logs[i].File != res.Logs[j].File {
			return res.Logs[i].File < res.Logs[j].File
		}
		return res.Logs[i].Line < res.Logs[j].Line
	})
	return res, nil
}

// CacheCounters reports zero hits and zero misses: analysis results are
// not cached on disk. It is kept for callers that still sample it.
//
// Deprecated: there is no analysis disk cache.
func CacheCounters() (hits, misses int64) { return 0, 0 }
