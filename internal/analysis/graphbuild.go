package analysis

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"strconv"

	"anduril/internal/graph"
)

// Node ID constructors. IDs are deterministic (file:line based) so the two
// analysis passes agree on identities.
func nodeHandlerID(pos token.Position) string { return posID("handler:", pos.Filename, pos.Line) }
func nodeCondID(pos token.Position) string    { return posID("cond:", pos.Filename, pos.Line) }
func nodeLogID(pos token.Position) string     { return posID("log:", pos.Filename, pos.Line) }
func nodeCallID(pos token.Position) string    { return posID("call:", pos.Filename, pos.Line) }
func nodeAssignID(pos token.Position) string  { return posID("assign:", pos.Filename, pos.Line) }
func nodeNewID(pos token.Position) string     { return posID("new:", pos.Filename, pos.Line) }

// posID is prefix, the file's base name, ':' and the line.
func posID(prefix, file string, line int) string {
	base := filepath.Base(file)
	b := make([]byte, 0, len(prefix)+len(base)+8)
	b = append(append(append(b, prefix...), base...), ':')
	return string(strconv.AppendInt(b, int64(line), 10))
}

func nodeSiteID(site string) string { return "site:" + site }

// gsource is one possible origin of an error value.
type gsource struct {
	node string // causal-graph node ID (site, iexc or new node)
}

// buildCtx is the walking context inside one function.
type buildCtx struct {
	fn         *funcInfo
	handler    string   // innermost handler node ID
	conds      []string // enclosing condition node IDs
	errSources map[string][]gsource
	contParam  string    // name of the error parameter in an RPC continuation
	contSrcs   []gsource // its sources
}

type builder struct {
	a *analyzer
	g *graph.Graph
}

// ensure adds a node if missing and returns its ID.
func (b *builder) ensure(n graph.Node) string {
	b.g.AddNode(n)
	return n.ID
}

func (b *builder) edge(cause, effect string) {
	if cause == "" || effect == "" || cause == effect {
		return
	}
	// Both endpoints are ensured by callers; ignore ordering slips.
	_ = b.g.AddEdge(cause, effect)
}

// buildGraph runs the second pass: emit every causal-graph node and edge.
func (a *analyzer) buildGraph() *graph.Graph {
	b := &builder{a: a, g: graph.New()}

	// Function-level nodes.
	for id, info := range a.funcs {
		b.ensure(graph.Node{ID: info.inv, Kind: graph.Invocation,
			Pos: posID("", info.file, info.line), Func: id})
		b.ensure(graph.Node{ID: info.iexc, Kind: graph.InternalException,
			Pos: posID("", info.file, info.line), Func: id})
	}

	// Fault-site source nodes.
	for id, si := range a.sites {
		kind := graph.ExternalException
		if si.Func != "" && si.File != "" && si.Kind != "" && isReachSite(si) {
			kind = graph.NewException
		}
		b.ensure(graph.Node{ID: nodeSiteID(id), Kind: kind, Site: id,
			Pos: posID("", si.File, si.Line), Func: si.Func})
	}

	// Assignment nodes with their handler/condition context edges.
	for _, f := range a.assigns {
		id := b.ensure(graph.Node{ID: nodeAssignID(f.pos), Kind: graph.Location,
			Pos: posID("", f.pos.Filename, f.pos.Line), Func: f.fn.id})
		b.edge(f.fn.inv, id)
		if f.handler != "" {
			b.ensure(graph.Node{ID: f.handler, Kind: graph.Handler, Func: f.fn.id})
			b.edge(f.handler, id)
		}
		for _, c := range f.conds {
			b.ensure(graph.Node{ID: c, Kind: graph.Condition, Func: f.fn.id})
			b.edge(c, id)
		}
	}

	// Per-function walk.
	for _, info := range a.funcs {
		ctx := &buildCtx{fn: info, errSources: make(map[string][]gsource)}
		b.walkBlock(info.decl.Body, ctx)
	}
	return b.g
}

// isReachSite distinguishes FI.Reach sites (faults born inside system code,
// new-exception nodes) from environment-boundary sites (external-exception
// nodes). Reach sites were recorded from a Reach call, which parse.go only
// classifies when the kind selector came from the inject package; we tell
// them apart by checking whether any env method could have produced the
// kind at that site. Environment sites dominate, so default to external.
func isReachSite(si SiteInfo) bool {
	for _, k := range envMethodKinds {
		if si.Kind == k {
			// Ambiguous: both Reach and env methods use IO/Socket kinds.
			// Treat dotted IDs with a ".reach-" hint as new-exception.
			return false
		}
	}
	return true
}

func (b *builder) walkBlock(blk *ast.BlockStmt, ctx *buildCtx) {
	if blk == nil {
		return
	}
	for _, s := range blk.List {
		b.walkStmt(s, ctx)
	}
}

func (b *builder) walkStmt(s ast.Stmt, ctx *buildCtx) {
	switch st := s.(type) {
	case *ast.AssignStmt:
		b.walkAssign(st, ctx)
	case *ast.ExprStmt:
		b.emitExpr(st.X, ctx)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			b.emitExpr(r, ctx)
		}
	case *ast.IfStmt:
		b.walkIf(st, ctx)
	case *ast.ForStmt:
		b.walkBlock(st.Body, ctx)
	case *ast.RangeStmt:
		b.walkBlock(st.Body, ctx)
	case *ast.SwitchStmt:
		if st.Tag != nil {
			b.emitExpr(st.Tag, ctx)
		}
		for _, cc := range st.Body.List {
			if c, ok := cc.(*ast.CaseClause); ok {
				for _, cs := range c.Body {
					b.walkStmt(cs, ctx)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range st.Body.List {
			if c, ok := cc.(*ast.CaseClause); ok {
				for _, cs := range c.Body {
					b.walkStmt(cs, ctx)
				}
			}
		}
	case *ast.BlockStmt:
		b.walkBlock(st, ctx)
	case *ast.LabeledStmt:
		b.walkStmt(st.Stmt, ctx)
	case *ast.DeferStmt:
		b.emitExpr(st.Call, ctx)
	case *ast.GoStmt:
		b.emitExpr(st.Call, ctx)
	case *ast.DeclStmt:
		// var err error = ... declarations; rare in our systems.
	}
}

// walkAssign tracks error-variable sources and emits nested calls.
func (b *builder) walkAssign(st *ast.AssignStmt, ctx *buildCtx) {
	// Identify error-typed LHS names.
	var errNames []string
	for _, lhs := range st.Lhs {
		if id, ok := lhs.(*ast.Ident); ok && isErrName(id.Name) {
			errNames = append(errNames, id.Name)
		}
	}
	var srcs []gsource
	for _, rhs := range st.Rhs {
		srcs = append(srcs, b.emitExpr(rhs, ctx)...)
	}
	for _, n := range errNames {
		ctx.errSources[n] = srcs
	}
}

// walkIf handles both catch blocks (err != nil) and ordinary conditions.
func (b *builder) walkIf(st *ast.IfStmt, ctx *buildCtx) {
	if st.Init != nil {
		b.walkStmt(st.Init, ctx)
	}
	pos := b.a.pos(st)
	if isErrCheck(st.Cond) {
		errName := st.Cond.(*ast.BinaryExpr).X.(*ast.Ident).Name
		h := b.ensure(graph.Node{ID: nodeHandlerID(pos), Kind: graph.Handler, Func: ctx.fn.id,
			Pos: posID("", pos.Filename, pos.Line)})
		b.edge(ctx.fn.inv, h)
		for _, src := range b.sourcesOf(errName, ctx) {
			b.edge(src.node, h)
		}
		inner := *ctx
		inner.handler = h
		b.walkBlock(st.Body, &inner)
	} else {
		c := b.ensure(graph.Node{ID: nodeCondID(pos), Kind: graph.Condition, Func: ctx.fn.id,
			Pos: posID("", pos.Filename, pos.Line)})
		b.edge(ctx.fn.inv, c)
		// Jump strategy: any assignment to a name this condition reads is
		// causally prior to it.
		for _, name := range condNames(st.Cond) {
			for _, idx := range b.a.assignByName[name] {
				b.edge(nodeAssignID(b.a.assigns[idx].pos), c)
			}
		}
		b.emitExpr(st.Cond, ctx)
		inner := *ctx
		inner.conds = append(append([]string(nil), ctx.conds...), c)
		b.walkBlock(st.Body, &inner)
	}
	if st.Else != nil {
		b.walkStmt(st.Else, ctx)
	}
}

// condNames extracts the variable and field names a condition reads.
func condNames(expr ast.Expr) []string {
	seen := map[string]bool{}
	var out []string
	add := func(n string) {
		if n == "" || n == "nil" || n == "true" || n == "false" || n == "err" || n == "ok" || len(n) <= 2 {
			return
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			add(e.Sel.Name)
			return true
		case *ast.Ident:
			add(e.Name)
		case *ast.CallExpr:
			// Names inside call args still count; the callee name does not.
			if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
				for _, arg := range e.Args {
					ast.Inspect(arg, func(n2 ast.Node) bool {
						if id, ok := n2.(*ast.Ident); ok {
							add(id.Name)
						}
						return true
					})
				}
				_ = sel
				return false
			}
		}
		return true
	})
	return out
}

// sourcesOf resolves the current origins of an error variable, falling back
// to the RPC continuation's sources when the name is its parameter.
func (b *builder) sourcesOf(errName string, ctx *buildCtx) []gsource {
	if srcs, ok := ctx.errSources[errName]; ok && len(srcs) > 0 {
		return srcs
	}
	if errName == ctx.contParam {
		return ctx.contSrcs
	}
	return nil
}
