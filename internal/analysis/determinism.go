package analysis

// hpccdet — the determinism contract. Parallel, sharded and remote
// execution are trusted because every workload result is a pure function
// of (workload, params, kernel version): that is what the byte-identity
// CI gates compare and what the result cache and remote fleet replay.
// Four things quietly break that purity: wall clocks, the process-global
// rand source, map iteration order leaking into rendered output, and
// wildcard receives, which match in host arrival order.
//
// Scope: the wall-clock, rand and wildcard checks run only in
// deterministic packages (the simulation engine, kernels and harness — see
// deterministicPkgs — or any package marked //hpcc:deterministic). The
// map-iteration checks run module-wide: ordered output is a contract
// everywhere, from the CLI's tables to the wire protocol.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism is the hpccdet analyzer.
var Determinism = &Analyzer{
	Name: "hpccdet",
	Doc:  "flag wall clocks, global rand, wildcard receives, and map-iteration order reaching results in deterministic packages",
	Run:  runDeterminism,
}

// deterministicPkgs are the packages whose outputs feed Results or wire
// frames — the bit-identity surface. Prefixes end in "/".
var deterministicPkgs = []string{
	"repro/internal/nx",
	"repro/internal/harness",
	"repro/internal/linpack",
	"repro/internal/vtime",
	"repro/internal/micro",
	"repro/internal/mesh",
	"repro/internal/nren",
	"repro/internal/blas",
	"repro/internal/sim",
	"repro/internal/machine",
	"repro/internal/core",
	"repro/internal/apps/",
}

func isDeterministicPkg(pass *Pass) bool {
	path := pass.Pkg.Path()
	for _, p := range deterministicPkgs {
		if path == p || (strings.HasSuffix(p, "/") && strings.HasPrefix(path, p)) {
			return true
		}
	}
	return hasMarker(pass.Files, "deterministic")
}

// seededRandCtors are the math/rand entry points that take an explicit
// source or seed — the only sanctioned way into rand from deterministic
// code.
var seededRandCtors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) error {
	det := isDeterministicPkg(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if det {
					checkWallClock(pass, n)
					checkGlobalRand(pass, n)
				}
			case *ast.Ident:
				if det {
					checkWildcardRecv(pass, n)
				}
			case *ast.RangeStmt:
				checkMapRange(pass, f, n)
			}
			return true
		})
	}
	return nil
}

// checkWallClock flags time.Now/Since/Until: simulated time must come
// from the machine model (internal/vtime), never the host clock.
func checkWallClock(pass *Pass, call *ast.CallExpr) {
	obj := calleeOf(pass, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" {
		return
	}
	switch obj.Name() {
	case "Now", "Since", "Until":
		pass.Reportf(call.Pos(), "wall clock time.%s in deterministic package %s: results must be pure functions of the machine model (use internal/vtime, or suppress for I/O deadlines)",
			obj.Name(), pass.Pkg.Path())
	}
}

// checkGlobalRand flags the process-global math/rand source. Its
// sequence depends on every other consumer in the process, so two runs
// (or the local and remote side of a sweep) draw different numbers.
func checkGlobalRand(pass *Pass, call *ast.CallExpr) {
	obj := calleeOf(pass, call)
	if obj == nil || obj.Pkg() == nil {
		return
	}
	if p := obj.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
		return
	}
	// Only package-level functions hit the global source; methods on a
	// *rand.Rand constructed from a seed are deterministic.
	if _, isFunc := obj.(*types.Func); !isFunc || isMethod(obj) || seededRandCtors[obj.Name()] {
		return
	}
	pass.Reportf(call.Pos(), "global math/rand source (rand.%s) in deterministic package %s: use rand.New(rand.NewSource(seed)) so runs replay bit-identically",
		obj.Name(), pass.Pkg.Path())
}

// nxPkg is the message-passing runtime, the one package that may use its
// own receive wildcards (Probe polling and its tests).
const nxPkg = "repro/internal/nx"

// checkWildcardRecv flags nx.AnySrc and nx.AnyTag outside the runtime. A
// wildcard receive takes whichever candidate message the host delivered
// first, so when candidates race the virtual times differ between runs
// (see nx.Proc.Recv); only exact (src, tag) receives are deterministic.
func checkWildcardRecv(pass *Pass, id *ast.Ident) {
	if pass.Pkg.Path() == nxPkg {
		return
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Const)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != nxPkg {
		return
	}
	switch obj.Name() {
	case "AnySrc", "AnyTag":
		pass.Reportf(id.Pos(), "wildcard nx.%s in deterministic package %s: wildcard receives match in host arrival order; name the exact source and tag",
			obj.Name(), pass.Pkg.Path())
	}
}

// checkMapRange flags range-over-map bodies whose effects depend on
// iteration order: appends that are never sorted afterwards, writes to
// builders/buffers or output streams, channel sends, order-sensitive
// accumulation (string concat, float sums), and returns that pick a
// value from the iteration.
func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	if rng.X == nil {
		return
	}
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	loopVars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				loopVars[obj] = true
			}
		}
	}
	declaredOutside := func(e ast.Expr) (types.Object, bool) {
		obj := exprObject(pass, e)
		if obj == nil {
			return nil, false
		}
		inside := obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End()
		return obj, !inside
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // its body runs later, under its own rules
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, file, rng, n, declaredOutside)
		case *ast.SendStmt:
			if _, outside := declaredOutside(n.Chan); outside {
				pass.Reportf(n.Pos(), "channel send inside a map range: receivers observe map-iteration order; iterate sorted keys instead")
			}
		case *ast.CallExpr:
			checkMapRangeCall(pass, n, declaredOutside)
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if usesAny(pass, res, loopVars) {
					pass.Reportf(n.Pos(), "return of a map-iteration variable: which entry wins depends on map order; iterate sorted keys instead")
					return true
				}
			}
		}
		return true
	})
}

// checkMapRangeAssign handles the append and += sinks of a map-range
// body. Appends get the sort rescue: the dominant safe idiom collects
// keys in any order and sorts immediately after the loop, and that is
// deterministic, so an append whose target is later passed to sort.* or
// slices.Sort* is not flagged.
func checkMapRangeAssign(pass *Pass, file *ast.File, rng *ast.RangeStmt, n *ast.AssignStmt, declaredOutside func(ast.Expr) (types.Object, bool)) {
	if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
		return
	}
	obj, outside := declaredOutside(n.Lhs[0])
	if !outside {
		return
	}
	switch n.Tok {
	case token.ASSIGN:
		if call, ok := n.Rhs[0].(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
			if !sortedAfter(pass, file, rng, obj) {
				pass.Reportf(n.Pos(), "%s is appended in map-iteration order and never sorted: collect keys, sort, then append", obj.Name())
			}
		}
	case token.ADD_ASSIGN:
		if b, ok := pass.TypesInfo.Types[n.Lhs[0]].Type.Underlying().(*types.Basic); ok {
			switch {
			case b.Info()&types.IsString != 0:
				pass.Reportf(n.Pos(), "string concatenation onto %s in map-iteration order: iterate sorted keys instead", obj.Name())
			case b.Info()&types.IsFloat != 0:
				pass.Reportf(n.Pos(), "float accumulation onto %s in map-iteration order: float addition is not associative, so the sum depends on map order", obj.Name())
			}
		}
	}
}

// checkMapRangeCall flags builder/buffer writes and printed output
// inside a map-range body — sinks with no sort rescue, because the
// bytes are already ordered when they leave the loop.
func checkMapRangeCall(pass *Pass, call *ast.CallExpr, declaredOutside func(ast.Expr) (types.Object, bool)) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	// fmt.Print*/Fprint* — rendered output in map order.
	if obj := calleeOf(pass, call); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(obj.Name(), "Print") || strings.HasPrefix(obj.Name(), "Fprint")) {
		pass.Reportf(call.Pos(), "output written via fmt.%s inside a map range: bytes leave in map-iteration order; iterate sorted keys instead", obj.Name())
		return
	}
	// Builder/buffer Write* on a receiver declared outside the loop.
	if !strings.HasPrefix(sel.Sel.Name, "Write") {
		return
	}
	recvObj, outside := declaredOutside(sel.X)
	if recvObj == nil || !outside {
		return
	}
	t := pass.TypesInfo.Types[sel.X].Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
		case "strings.Builder", "bytes.Buffer":
			pass.Reportf(call.Pos(), "%s.%s inside a map range builds bytes in map-iteration order; iterate sorted keys instead", recvObj.Name(), sel.Sel.Name)
		}
	}
}

// sortedAfter reports whether obj is passed to a sort call somewhere
// after the range loop — sort.X(s), sort.Slice(s, ...), slices.Sort(s).
func sortedAfter(pass *Pass, file *ast.File, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		callee := calleeOf(pass, call)
		if callee == nil || callee.Pkg() == nil {
			return true
		}
		switch callee.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		if !strings.HasPrefix(callee.Name(), "Sort") && !isSortHelper(callee.Name()) {
			return true
		}
		if exprObject(pass, call.Args[0]) == obj {
			found = true
		}
		return true
	})
	return found
}

// isSortHelper matches the sort package's type-specific helpers.
func isSortHelper(name string) bool {
	switch name {
	case "Strings", "Ints", "Float64s", "Stable", "Slice", "SliceStable":
		return true
	}
	return false
}

// --- shared AST/type helpers -------------------------------------------

// calleeOf resolves the object a call invokes, looking through selector
// and plain-identifier call forms.
func calleeOf(pass *Pass, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[fun.Sel]
	}
	return nil
}

// exprObject resolves an expression to the variable it names, looking
// through plain identifiers and field selectors.
func exprObject(pass *Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[e]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Defs[e]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[e.Sel]
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return exprObject(pass, e.X)
		}
	}
	return nil
}

// isBuiltinAppend reports whether call invokes the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin && id.Name == "append"
}

// isMethod reports whether obj is a method (has a receiver).
func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil
}

// usesAny reports whether expression e references any object in set.
func usesAny(pass *Pass, e ast.Expr, set map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && set[pass.TypesInfo.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}
