package failures

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"anduril/internal/analysis"
)

// TestTargetsBuildStringsWithoutFmt: every trial rebuilds its target, so a
// path, record or name a target formats with fmt is paid on every trial.
// The targets append them with strconv and internal/textrec instead; this
// scan of each system's non-test source fails on any fmt.Sprint*,
// fmt.Fprint* or fmt.Append*. fmt.Errorf stays allowed: it runs on error
// paths only.
func TestTargetsBuildStringsWithoutFmt(t *testing.T) {
	var names []string
	for system := range systems {
		names = append(names, system)
	}
	slices.Sort(names)
	for _, system := range names {
		for _, dir := range srcDirs(system) {
			dir = filepath.Join(analysis.RepoRoot(), dir)
			files, err := filepath.Glob(filepath.Join(dir, "*.go"))
			if err != nil || len(files) == 0 {
				t.Fatalf("%s: no Go files in %s (%v)", system, dir, err)
			}
			for _, path := range files {
				if strings.HasSuffix(path, "_test.go") {
					continue
				}
				for _, call := range fmtFormatting(t, path) {
					t.Errorf("%s: %s builds a string with fmt; append it with strconv", system, call)
				}
			}
		}
	}
}

// fmtFormatting lists, as "file:line fmt.Name", the calls in a Go file to
// fmt's string-building functions, under whatever name the file imports
// fmt.
func fmtFormatting(t *testing.T, path string) []string {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	local := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "fmt" {
			local = "fmt"
			if imp.Name != nil {
				local = imp.Name.Name
			}
		}
	}
	if local == "" {
		return nil
	}
	var calls []string
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
			name := sel.Sel.Name
			if strings.HasPrefix(name, "Sprint") || strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Append") {
				pos := fset.Position(sel.Pos())
				calls = append(calls, filepath.Base(path)+":"+strconv.Itoa(pos.Line)+" fmt."+name)
			}
		}
		return true
	})
	return calls
}
