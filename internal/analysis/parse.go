package analysis

import (
	"go/ast"
	"go/token"
	"strconv"

	"anduril/internal/inject"
)

// envMethodKinds maps simulated-environment method names to the fault kind
// their Reach hook declares. A call only counts as a fault site when its
// first argument is a constant, dotted site-ID string.
var envMethodKinds = map[string]inject.Kind{
	"Create": inject.IO,
	"Append": inject.IO,
	"Write":  inject.IO,
	"Sync":   inject.IO,
	"Rename": inject.IO,
	"Delete": inject.IO,
	"Read":   inject.FileNotFound,
	"Send":   inject.Socket,
	"Call":   inject.Socket,
}

// reachKinds maps inject.Kind selector names used at FI.Reach call sites.
var reachKinds = map[string]inject.Kind{
	"IO":           inject.IO,
	"Timeout":      inject.Timeout,
	"Socket":       inject.Socket,
	"FileNotFound": inject.FileNotFound,
	"Interrupted":  inject.Interrupted,
	"Connection":   inject.Connection,
	"Checksum":     inject.Checksum,
	"State":        inject.State,
}

var logMethods = map[string]bool{
	"Debugf": true, "Infof": true, "Warnf": true, "Errorf": true,
}

// funcInfo is what the analyzer knows about one function declaration.
type funcInfo struct {
	id           string
	inv, iexc    string // its invocation and internal-exception node IDs
	name         string
	file         string
	line         int
	decl         *ast.FuncDecl
	returnsError bool

	// depth-0 facts used by the escape fixpoint.
	envSites      []string // site IDs of environment calls
	internalCalls []string // bare names of calls that may resolve internally

	escapes map[string]bool // site IDs whose fault can escape via return
}

// assignFact records one assignment to a named variable or field, with the
// error-handling context it occurred in (for handler → assignment edges).
type assignFact struct {
	name    string
	pos     token.Position
	fn      *funcInfo
	handler string   // enclosing handler node ID, if any
	conds   []string // enclosing condition node IDs
}

type analyzer struct {
	fset *token.FileSet

	funcs        map[string]*funcInfo
	funcsByName  map[string][]*funcInfo
	handlers     map[string][]string // message type -> handler function names
	assigns      []assignFact
	assignByName map[string][]int // name -> indices into assigns

	sites map[string]SiteInfo
	logs  []LogInfo
}

func newAnalyzer(fset *token.FileSet) *analyzer {
	return &analyzer{
		fset:         fset,
		funcs:        make(map[string]*funcInfo),
		funcsByName:  make(map[string][]*funcInfo),
		handlers:     make(map[string][]string),
		assignByName: make(map[string][]int),
		sites:        make(map[string]SiteInfo),
	}
}

func (a *analyzer) pos(n ast.Node) token.Position { return a.fset.Position(n.Pos()) }

// constString returns the value of a constant string expression, if expr is
// one.
func constString(expr ast.Expr) (string, bool) {
	lit, ok := expr.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// calleeName extracts the bare callee name of a call expression.
func calleeName(call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	case *ast.Ident:
		return fun.Name, true
	}
	return "", false
}

// receiverIdent returns the receiver identifier of a selector call
// ("fmt" in fmt.Errorf, "e" in e.Log.Errorf returns "" since the X is a
// nested selector).
func receiverIdent(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isLogCall reports whether the call is a logging statement (and not
// fmt.Errorf/fmt.Sprintf, which share method names with the logger).
func isLogCall(call *ast.CallExpr, name string) bool {
	if !logMethods[name] {
		return false
	}
	recv := receiverIdent(call)
	return recv != "fmt" && recv != "errors"
}

// classifySite reports whether the call is an environment fault site and
// returns its site ID and kind.
func classifySite(call *ast.CallExpr) (string, inject.Kind, bool) {
	name, ok := calleeName(call)
	if !ok || len(call.Args) == 0 {
		return "", "", false
	}
	if name == "Reach" {
		id, ok := constString(call.Args[0])
		if !ok || !isSiteID(id) || len(call.Args) < 2 {
			return "", "", false
		}
		kind := inject.IO
		if sel, ok := call.Args[1].(*ast.SelectorExpr); ok {
			if k, ok := reachKinds[sel.Sel.Name]; ok {
				kind = k
			}
		}
		return id, kind, true
	}
	kind, ok := envMethodKinds[name]
	if !ok {
		return "", "", false
	}
	id, ok := constString(call.Args[0])
	if !ok || !isSiteID(id) {
		return "", "", false
	}
	return id, kind, true
}

// isSiteID requires dotted, lower-case-ish identifiers ("zk.snap.create")
// so arbitrary string arguments are not mistaken for fault sites.
func isSiteID(s string) bool {
	dots := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '.':
			dots++
		case c == '-' || c == '_':
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
		default:
			return false
		}
	}
	return dots >= 1 && len(s) > 2
}

// funcID composes the analyzer-wide identity of a function declaration.
func funcID(decl *ast.FuncDecl) string {
	if decl.Recv != nil && len(decl.Recv.List) > 0 {
		t := decl.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return id.Name + "." + decl.Name.Name
		}
	}
	return decl.Name.Name
}

func returnsError(decl *ast.FuncDecl) bool {
	if decl.Type.Results == nil {
		return false
	}
	for _, r := range decl.Type.Results.List {
		if id, ok := r.Type.(*ast.Ident); ok && id.Name == "error" {
			return true
		}
	}
	return false
}

// collect performs the first pass over a file: function facts, Handle
// registrations, fault sites, log statements.
func (a *analyzer) collect(f *ast.File) {
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		id := funcID(fn)
		pos := a.pos(fn)
		info := &funcInfo{
			id:           id,
			inv:          "inv:" + id,
			iexc:         "iexc:" + id,
			name:         fn.Name.Name,
			file:         pos.Filename,
			line:         pos.Line,
			decl:         fn,
			returnsError: returnsError(fn),
			escapes:      make(map[string]bool),
		}
		a.funcs[id] = info
		a.funcsByName[fn.Name.Name] = append(a.funcsByName[fn.Name.Name], info)
		a.collectFacts(info)
	}
}

// collectFacts walks a function body once, gathering depth-0 env sites and
// internal calls (for the escape fixpoint), Handle registrations, all fault
// sites and all log statements.
func (a *analyzer) collectFacts(info *funcInfo) {
	depth := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			depth++
			ast.Inspect(node.Body, walk)
			depth--
			return false
		case *ast.CallExpr:
			a.collectCall(info, node, depth)
		}
		return true
	}
	ast.Inspect(info.decl.Body, walk)
}

func (a *analyzer) collectCall(info *funcInfo, call *ast.CallExpr, depth int) {
	name, ok := calleeName(call)
	if !ok {
		return
	}
	pos := a.pos(call)

	// Handle registration: Net.Handle(node, "type", actor, handlerFunc).
	if name == "Handle" && len(call.Args) >= 4 {
		if typ, ok := constString(call.Args[1]); ok {
			if hname, ok := handlerFuncName(call.Args[3]); ok {
				a.handlers[typ] = append(a.handlers[typ], hname)
			}
		}
		return
	}

	if isLogCall(call, name) && len(call.Args) > 0 {
		if tmpl, ok := constString(call.Args[0]); ok {
			a.logs = append(a.logs, LogInfo{Template: tmpl, File: pos.Filename, Line: pos.Line, Func: info.id})
			return
		}
	}

	if id, kind, ok := classifySite(call); ok {
		if _, seen := a.sites[id]; !seen {
			a.sites[id] = SiteInfo{ID: id, Kind: kind, File: pos.Filename, Line: pos.Line, Func: info.id}
		}
		if depth == 0 {
			info.envSites = append(info.envSites, id)
		}
		return
	}

	// Internal call candidate (resolved by name in a later pass).
	if depth == 0 {
		info.internalCalls = append(info.internalCalls, name)
	}
}

// handlerFuncName extracts the method name from a handler argument like
// s.onVote or onVote.
func handlerFuncName(expr ast.Expr) (string, bool) {
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		return e.Sel.Name, true
	case *ast.Ident:
		return e.Name, true
	}
	return "", false
}

// indexAssignments builds the jump-strategy table: every assignment to a
// named variable or field, with its error-handling context.
func (a *analyzer) indexAssignments() {
	for _, info := range a.funcs {
		a.indexAssignsIn(info)
	}
	for i, f := range a.assigns {
		a.assignByName[f.name] = append(a.assignByName[f.name], i)
	}
}

// indexAssignsIn records assignments inside one function, tracking the
// handler/condition context with a lightweight recursive walk.
func (a *analyzer) indexAssignsIn(info *funcInfo) {
	var walkStmt func(s ast.Stmt, handler string, conds []string)
	record := func(lhs ast.Expr, pos token.Position, handler string, conds []string) {
		var name string
		switch e := lhs.(type) {
		case *ast.Ident:
			name = e.Name
		case *ast.SelectorExpr:
			name = e.Sel.Name
		default:
			return
		}
		if name == "_" || name == "err" {
			return
		}
		a.assigns = append(a.assigns, assignFact{
			name: name, pos: pos, fn: info,
			handler: handler, conds: append([]string(nil), conds...),
		})
	}
	walkBlock := func(b *ast.BlockStmt, handler string, conds []string) {
		if b == nil {
			return
		}
		for _, s := range b.List {
			walkStmt(s, handler, conds)
		}
	}
	walkStmt = func(s ast.Stmt, handler string, conds []string) {
		switch st := s.(type) {
		case *ast.AssignStmt:
			pos := a.pos(st)
			for _, lhs := range st.Lhs {
				record(lhs, pos, handler, conds)
			}
		case *ast.IncDecStmt:
			record(st.X, a.pos(st), handler, conds)
		case *ast.BlockStmt:
			walkBlock(st, handler, conds)
		case *ast.IfStmt:
			if st.Init != nil {
				walkStmt(st.Init, handler, conds)
			}
			pos := a.pos(st)
			if isErrCheck(st.Cond) {
				h := nodeHandlerID(pos)
				walkBlock(st.Body, h, conds)
			} else {
				c := nodeCondID(pos)
				walkBlock(st.Body, handler, append(conds, c))
			}
			if st.Else != nil {
				walkStmt(st.Else, handler, conds)
			}
		case *ast.ForStmt:
			walkBlock(st.Body, handler, conds)
		case *ast.RangeStmt:
			walkBlock(st.Body, handler, conds)
		case *ast.SwitchStmt:
			for _, cc := range st.Body.List {
				if c, ok := cc.(*ast.CaseClause); ok {
					for _, cs := range c.Body {
						walkStmt(cs, handler, conds)
					}
				}
			}
		case *ast.TypeSwitchStmt:
			for _, cc := range st.Body.List {
				if c, ok := cc.(*ast.CaseClause); ok {
					for _, cs := range c.Body {
						walkStmt(cs, handler, conds)
					}
				}
			}
		case *ast.LabeledStmt:
			walkStmt(st.Stmt, handler, conds)
		case *ast.ExprStmt:
			// Function literals in arguments (continuations) also assign.
			ast.Inspect(st.X, func(n ast.Node) bool {
				if fl, ok := n.(*ast.FuncLit); ok {
					walkBlock(fl.Body, handler, conds)
					return false
				}
				return true
			})
		}
	}
	walkBlock(info.decl.Body, "", nil)
}

// isErrCheck recognizes `err != nil` style conditions (the catch blocks).
func isErrCheck(cond ast.Expr) bool {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return false
	}
	id, ok := bin.X.(*ast.Ident)
	if !ok {
		return false
	}
	if nilIdent, ok := bin.Y.(*ast.Ident); !ok || nilIdent.Name != "nil" {
		return false
	}
	return isErrName(id.Name)
}

func isErrName(name string) bool {
	if name == "err" {
		return true
	}
	if len(name) <= 3 {
		return false
	}
	suffix := name[len(name)-3:]
	return suffix == "Err" || suffix == "err"
}

// computeEscapes runs the interprocedural error-flow fixpoint: the set of
// fault sites whose error can escape each function via its error result.
func (a *analyzer) computeEscapes() {
	changed := true
	for changed {
		changed = false
		for _, info := range a.funcs {
			if !info.returnsError {
				continue
			}
			for _, site := range info.envSites {
				if !info.escapes[site] {
					info.escapes[site] = true
					changed = true
				}
			}
			for _, callee := range info.internalCalls {
				for _, calleeInfo := range a.funcsByName[callee] {
					for site := range calleeInfo.escapes {
						if !info.escapes[site] {
							info.escapes[site] = true
							changed = true
						}
					}
				}
			}
		}
	}
}

func (a *analyzer) siteList() []SiteInfo {
	out := make([]SiteInfo, 0, len(a.sites))
	for _, s := range a.sites {
		out = append(out, s)
	}
	return out
}

func (a *analyzer) logList() []LogInfo { return a.logs }
