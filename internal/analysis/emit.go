package analysis

import (
	"go/ast"

	"anduril/internal/graph"
)

// emitExpr walks an expression, emitting causal-graph nodes and edges for
// the calls it contains, and returns the error sources the expression can
// produce (used when the expression is assigned to an error variable).
func (b *builder) emitExpr(expr ast.Expr, ctx *buildCtx) []gsource {
	if expr == nil {
		return nil
	}
	switch e := expr.(type) {
	case *ast.CallExpr:
		return b.emitCall(e, ctx)
	case *ast.FuncLit:
		inner := *ctx
		inner.errSources = make(map[string][]gsource)
		b.walkBlock(e.Body, &inner)
		return nil
	case *ast.BinaryExpr:
		srcs := b.emitExpr(e.X, ctx)
		return append(srcs, b.emitExpr(e.Y, ctx)...)
	case *ast.UnaryExpr:
		return b.emitExpr(e.X, ctx)
	case *ast.ParenExpr:
		return b.emitExpr(e.X, ctx)
	case *ast.Ident:
		// An error identifier used as a value passes its sources along.
		if isErrName(e.Name) {
			return b.sourcesOf(e.Name, ctx)
		}
		return nil
	case *ast.CompositeLit:
		var srcs []gsource
		for _, elt := range e.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				srcs = append(srcs, b.emitExpr(kv.Value, ctx)...)
			} else {
				srcs = append(srcs, b.emitExpr(elt, ctx)...)
			}
		}
		return srcs
	case *ast.SelectorExpr, *ast.BasicLit, *ast.IndexExpr, *ast.SliceExpr, *ast.TypeAssertExpr, *ast.StarExpr, *ast.KeyValueExpr:
		return nil
	}
	return nil
}

// emitCall classifies one call expression and emits the matching nodes.
func (b *builder) emitCall(call *ast.CallExpr, ctx *buildCtx) []gsource {
	name, _ := calleeName(call)
	pos := b.a.pos(call)
	posStr := posID("", pos.Filename, pos.Line)

	// Log statement: a sink location node.
	if isLogCall(call, name) && len(call.Args) > 0 {
		if tmpl, ok := constString(call.Args[0]); ok {
			id := b.ensure(graph.Node{ID: nodeLogID(pos), Kind: graph.Location,
				Template: tmpl, Pos: posStr, Func: ctx.fn.id})
			b.edge(ctx.fn.inv, id)
			if ctx.handler != "" {
				b.edge(ctx.handler, id)
			}
			for _, c := range ctx.conds {
				b.edge(c, id)
			}
			// Arguments may mention error values; they do not add edges.
			return nil
		}
	}

	// Environment fault site.
	if siteID, _, ok := classifySite(call); ok {
		sid := nodeSiteID(siteID)
		if ctx.fn.returnsError {
			b.edge(sid, ctx.fn.iexc)
		}
		srcs := []gsource{{node: sid}}

		// RPC with continuation: wire cross-actor error flow.
		if name == "Call" {
			b.emitRPC(call, ctx, sid, posStr)
			return srcs
		}
		// One-way send: delivery causality to the registered handlers.
		if name == "Send" {
			cl := b.ensure(graph.Node{ID: nodeCallID(pos), Kind: graph.Location, Pos: posStr, Func: ctx.fn.id})
			b.edge(ctx.fn.inv, cl)
			if ctx.handler != "" {
				b.edge(ctx.handler, cl)
			}
			for _, c := range ctx.conds {
				b.edge(c, cl)
			}
			for _, hf := range b.matchedHandlers(call) {
				b.edge(cl, hf.inv)
			}
		}
		// Remaining args may contain nested calls (payload builders).
		for _, arg := range call.Args[1:] {
			b.emitExpr(arg, ctx)
		}
		return srcs
	}

	// Error constructors: new-exception nodes.
	if (name == "Errorf" || name == "New") && (receiverIdent(call) == "fmt" || receiverIdent(call) == "errors") {
		id := b.ensure(graph.Node{ID: nodeNewID(pos), Kind: graph.NewException, Pos: posStr, Func: ctx.fn.id})
		srcs := []gsource{{node: id}}
		// fmt.Errorf("...: %w", err) propagates the wrapped error's sources.
		for _, arg := range call.Args {
			srcs = append(srcs, b.emitExpr(arg, ctx)...)
		}
		return srcs
	}

	// respond(payload, err)-style throw through an RPC reply.
	if (name == "respond" || name == "cont" || name == "finish") && len(call.Args) >= 2 {
		if !isNilExpr(call.Args[1]) {
			for _, src := range b.emitExpr(call.Args[1], ctx) {
				b.edge(src.node, ctx.fn.iexc)
			}
		}
		b.emitExpr(call.Args[0], ctx)
		return nil
	}

	// Internal call candidate.
	if callees := b.a.funcsByName[name]; len(callees) > 0 {
		cl := b.ensure(graph.Node{ID: nodeCallID(pos), Kind: graph.Location, Pos: posStr, Func: ctx.fn.id})
		b.edge(ctx.fn.inv, cl)
		if ctx.handler != "" {
			b.edge(ctx.handler, cl)
		}
		for _, c := range ctx.conds {
			b.edge(c, cl)
		}
		var srcs []gsource
		for _, callee := range callees {
			b.edge(cl, callee.inv)
			// Error propagation: callee faults surface here and can flow
			// onward through this function (return or respond).
			b.edge(callee.iexc, ctx.fn.iexc)
			srcs = append(srcs, gsource{node: callee.iexc})
		}
		for _, arg := range call.Args {
			b.emitExpr(arg, ctx)
		}
		return srcs
	}

	// Unknown callee (library call, closure variable, ...): still walk args.
	var srcs []gsource
	for _, arg := range call.Args {
		srcs = append(srcs, b.emitExpr(arg, ctx)...)
	}
	return srcs
}

// emitRPC handles Net.Call(site, msg, timeout, continuation): the
// continuation's error parameter is fed by the call's own fault site and by
// faults escaping the remote handlers for the message type — the paper's
// cross-thread exception propagation (§4.1).
func (b *builder) emitRPC(call *ast.CallExpr, ctx *buildCtx, siteNode, posStr string) {
	contSrcs := []gsource{{node: siteNode}}
	for _, hf := range b.matchedHandlers(call) {
		contSrcs = append(contSrcs, gsource{node: hf.iexc})
	}
	// Delivery causality for the request itself.
	pos := b.a.pos(call)
	cl := b.ensure(graph.Node{ID: nodeCallID(pos), Kind: graph.Location, Pos: posStr, Func: ctx.fn.id})
	b.edge(ctx.fn.inv, cl)
	if ctx.handler != "" {
		b.edge(ctx.handler, cl)
	}
	for _, c := range ctx.conds {
		b.edge(c, cl)
	}
	for _, hf := range b.matchedHandlers(call) {
		b.edge(cl, hf.inv)
	}

	for _, arg := range call.Args[1:] {
		if fl, ok := arg.(*ast.FuncLit); ok {
			inner := *ctx
			inner.errSources = make(map[string][]gsource)
			inner.contSrcs = contSrcs
			inner.contParam = errParamName(fl)
			b.walkBlock(fl.Body, &inner)
			continue
		}
		b.emitExpr(arg, ctx)
	}
}

// matchedHandlers finds the handler functions registered for any constant
// message-type string mentioned in the call's arguments.
func (b *builder) matchedHandlers(call *ast.CallExpr) []*funcInfo {
	var out []*funcInfo
	seen := map[string]bool{}
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			lit, ok := n.(*ast.BasicLit)
			if !ok {
				return true
			}
			s, ok := constString(lit)
			if !ok {
				return true
			}
			for _, hname := range b.a.handlers[s] {
				for _, fn := range b.a.funcsByName[hname] {
					if !seen[fn.id] {
						seen[fn.id] = true
						out = append(out, fn)
					}
				}
			}
			return true
		})
	}
	return out
}

// errParamName returns the name of the error-typed parameter of a func
// literal (the RPC continuation signature is (payload interface{}, err
// error)).
func errParamName(fl *ast.FuncLit) string {
	if fl.Type.Params == nil {
		return ""
	}
	for _, p := range fl.Type.Params.List {
		if id, ok := p.Type.(*ast.Ident); ok && id.Name == "error" {
			if len(p.Names) > 0 {
				return p.Names[0].Name
			}
		}
	}
	return ""
}

func isNilExpr(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
