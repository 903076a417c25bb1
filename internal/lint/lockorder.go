package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockorder enforces the scale-out engine's locking contracts
// (DESIGN.md §14):
//
//   - Lock classes (a mutex field of a named struct, or a package-level
//     mutex var) must be acquired in one global order. The analyzer
//     records every "B acquired while A held" edge — directly, and
//     through calls whose callees (transitively) acquire locks — and
//     reports every site of any A→B/B→A inversion. Acquiring two locks
//     of the same class at once is reported outright: stripe locks need
//     an index discipline the analyzer cannot see.
//
//   - A mutex whose declaration carries the //vsv:hotlock marker guards
//     hot-path state: while it is held, blocking operations are banned —
//     file/network I/O (including the failpoint helpers, which wrap
//     I/O), fsync, time.Sleep and friends, and channel sends (a send
//     under a select with a default case is non-blocking and
//     sanctioned). The ban closes over the call graph, so hiding the
//     Fsync behind a helper does not help. Locks without the marker
//     (the ledger and journal locks) are coarse I/O locks
//     by design and only participate in ordering.
type lockorder struct{}

func (lockorder) Name() string { return "lockorder" }

func (lockorder) Doc() string {
	return "one global mutex acquisition order; no blocking I/O, fsync, sends or sleeps while a //vsv:hotlock mutex is held"
}

// markerHotLock marks a mutex declaration (struct field or package-level
// var) as a hot-path lock: no blocking operation may run while it is held.
const markerHotLock = "//vsv:hotlock"

// lockClass is one declared mutex: a (named type, field) pair or a
// package-level var.
type lockClass struct {
	key  string // canonical: pkgpath.Type.field or pkgpath.var
	name string // display: pkgbase.Type.field
	hot  bool
	pos  token.Pos
}

// lockEdge is one "to acquired while from held" observation.
type lockEdge struct {
	pos token.Position
	via string // callee name for interprocedural edges, "" for direct
}

func (l lockorder) Run(prog *Program) []Diagnostic {
	classes := collectLockClasses(prog)
	if len(classes) == 0 {
		return nil
	}
	graph := buildCallGraph(prog)
	acquires := lockAcquireClosure(prog, graph, classes)
	tainted := blockingClosure(prog, graph)

	s := &lockScanner{
		prog: prog, classes: classes,
		graph: graph, acquires: acquires, tainted: tainted,
		edges: map[[2]string][]lockEdge{},
		names: map[string]string{},
	}
	for _, c := range classes {
		s.names[c.key] = c.name
	}
	for _, pkg := range prog.Pkgs {
		p := pkg
		eachFuncDecl(p, func(decl *ast.FuncDecl) {
			s.scanScope(p, decl.Body)
		})
	}

	// Report lock-order inversions: every site of both directions of any
	// A→B/B→A pair, in deterministic key order.
	var keys [][2]string
	for k := range s.edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		rev, ok := s.edges[[2]string{k[1], k[0]}]
		if !ok || k[0] == k[1] {
			continue
		}
		for _, e := range s.edges[k] {
			via := ""
			if e.via != "" {
				via = fmt.Sprintf(" (via %s)", e.via)
			}
			s.diags = append(s.diags, Diagnostic{"lockorder", e.pos,
				fmt.Sprintf("lock %s acquired%s while holding %s, but the opposite order is taken at %s:%d: lock hierarchy violation",
					s.names[k[1]], via, s.names[k[0]], rev[0].pos.Filename, rev[0].pos.Line)})
		}
	}
	sortDiags(s.diags)
	return s.diags
}

// HotLocks returns the display names of the //vsv:hotlock-marked mutex
// declarations (exported so tests can assert the marker sweep is intact).
func HotLocks(prog *Program) []string {
	var out []string
	for _, c := range collectLockClassList(prog) {
		if c.hot {
			out = append(out, c.name)
		}
	}
	return out
}

// collectLockClasses indexes every declared mutex by its types.Var.
func collectLockClasses(prog *Program) map[*types.Var]*lockClass {
	classes := map[*types.Var]*lockClass{}
	for _, pkg := range prog.Pkgs {
		base := pkgBase(pkg.Path)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if !ok {
						return true
					}
					for _, field := range st.Fields.List {
						if !isMutexType(pkg.Info, field.Type) {
							continue
						}
						hot := fieldMarked(field, markerHotLock)
						for _, name := range field.Names {
							v, ok := pkg.Info.Defs[name].(*types.Var)
							if !ok {
								continue
							}
							classes[v] = &lockClass{
								key:  pkg.Path + "." + n.Name.Name + "." + name.Name,
								name: base + "." + n.Name.Name + "." + name.Name,
								hot:  hot, pos: name.Pos(),
							}
						}
					}
				case *ast.GenDecl:
					if n.Tok != token.VAR {
						return true
					}
					for _, spec := range n.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok || !isMutexType(pkg.Info, vs.Type) {
							continue
						}
						hot := commentMarked(vs.Doc, markerHotLock) ||
							commentMarked(vs.Comment, markerHotLock) ||
							commentMarked(n.Doc, markerHotLock)
						for _, name := range vs.Names {
							v, ok := pkg.Info.Defs[name].(*types.Var)
							if !ok || v.Parent() != pkg.Types.Scope() {
								continue
							}
							classes[v] = &lockClass{
								key:  pkg.Path + "." + name.Name,
								name: base + "." + name.Name,
								hot:  hot, pos: name.Pos(),
							}
						}
					}
				}
				return true
			})
		}
	}
	return classes
}

// collectLockClassList returns the classes in declaration order.
func collectLockClassList(prog *Program) []*lockClass {
	classes := collectLockClasses(prog)
	list := make([]*lockClass, 0, len(classes))
	for _, c := range classes {
		list = append(list, c)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].pos < list[j].pos })
	return list
}

// fieldMarked reports whether a struct field's doc or trailing comment
// carries the marker.
func fieldMarked(field *ast.Field, marker string) bool {
	return commentMarked(field.Doc, marker) || commentMarked(field.Comment, marker)
}

func commentMarked(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if strings.Contains(c.Text, strings.TrimPrefix(marker, "//")) {
			return true
		}
	}
	return false
}

// isMutexType reports whether the field/var type is sync.Mutex or
// sync.RWMutex.
func isMutexType(info *types.Info, e ast.Expr) bool {
	if e == nil {
		return false
	}
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	return isMutexNamed(tv.Type)
}

func isMutexNamed(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockAcquireClosure computes, for every declared function, the set of
// lock-class keys it may acquire, closed transitively over the call graph.
func lockAcquireClosure(prog *Program, graph *callGraph, classes map[*types.Var]*lockClass) map[*types.Func]map[string]bool {
	acquires := map[*types.Func]map[string]bool{}
	for _, node := range graph.ordered {
		direct := map[string]bool{}
		info := node.pkg.Info
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if op, cls := mutexOp(info, call, classes); op == "Lock" || op == "RLock" || op == "TryLock" {
				if cls != nil {
					direct[cls.key] = true
				}
			}
			return true
		})
		acquires[node.obj] = direct
	}
	propagate(graph, acquires)
	return acquires
}

// blockingClosure computes which declared functions may block: perform
// file/network I/O, call the failpoint helpers, sleep, or send on a
// channel — directly or through anything they call.
func blockingClosure(prog *Program, graph *callGraph) map[*types.Func]bool {
	direct := map[*types.Func]bool{}
	for _, node := range graph.ordered {
		info := node.pkg.Info
		blocked := false
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			if blocked {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				if fn := calleeFunc(info, n); fn != nil && blockingCall(fn) {
					blocked = true
				}
			case *ast.SelectStmt:
				if selectHasDefault(n) {
					// Non-blocking by construction; still scan the bodies.
					for _, clause := range n.Body.List {
						if cc, ok := clause.(*ast.CommClause); ok {
							for _, stmt := range cc.Body {
								ast.Inspect(stmt, func(m ast.Node) bool {
									switch m := m.(type) {
									case *ast.CallExpr:
										if fn := calleeFunc(info, m); fn != nil && blockingCall(fn) {
											blocked = true
										}
									case *ast.SendStmt:
										blocked = true
									}
									return !blocked
								})
							}
						}
					}
					return false
				}
			case *ast.SendStmt:
				blocked = true
			}
			return !blocked
		})
		direct[node.obj] = blocked
	}
	tainted := map[*types.Func]map[string]bool{}
	for fn, b := range direct {
		set := map[string]bool{}
		if b {
			set["x"] = true
		}
		tainted[fn] = set
	}
	propagate(graph, tainted)
	out := map[*types.Func]bool{}
	for fn, set := range tainted {
		out[fn] = len(set) > 0
	}
	return out
}

// propagate closes per-function string sets over the call graph (caller
// absorbs callee) to a fixpoint. It walks only the statically resolved
// edges: conservative interface dispatch would say failpoint.Sync "may
// call" every Sync() error in the program — including the durable
// writers whose own locks are held around the failpoint call — turning
// every instrumented append into a phantom self-deadlock.
func propagate(graph *callGraph, sets map[*types.Func]map[string]bool) {
	for changed := true; changed; {
		changed = false
		for _, node := range graph.ordered {
			set := sets[node.obj]
			for _, callee := range graph.direct[node.obj] {
				for k := range sets[callee] {
					if !set[k] {
						set[k] = true
						changed = true
					}
				}
			}
		}
	}
}

// blockingCall reports whether a resolved callee is a direct blocking
// operation: file/network/exec I/O, the failpoint helpers (they wrap
// I/O), or a sleep/timer construction.
func blockingCall(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "os", "io", "bufio", "net", "net/http", "os/exec":
		return true
	case "time":
		switch fn.Name() {
		case "Sleep", "After", "Tick", "NewTimer", "NewTicker", "AfterFunc":
			return true
		}
	default:
		if strings.HasSuffix(pkg.Path(), "internal/failpoint") {
			return true
		}
	}
	return false
}

// mutexOp classifies a call as a mutex Lock/Unlock (and variants) on a
// known lock class. Returns ("", nil) for everything else.
func mutexOp(info *types.Info, call *ast.CallExpr, classes map[*types.Var]*lockClass) (string, *lockClass) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "Unlock", "RUnlock":
	default:
		return "", nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil
	}
	id := baseIdent(sel.X)
	if id == nil {
		return "", nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok {
		return "", nil
	}
	cls, ok := classes[v]
	if !ok {
		return "", nil
	}
	return sel.Sel.Name, cls
}

// ------------------------------------------------------- the scanner --

// heldLock is one acquired lock in a scan, in acquisition order.
type heldLock struct {
	cls *lockClass
	pos token.Pos
}

// lockScanner walks function bodies in source order tracking the held
// set. Function literals are scanned as their own scopes (a literal may
// run on another goroutine, so it inherits nothing); calls inside go and
// defer statements run on a fresh stack or at return, so they record no
// edges against the current held set.
type lockScanner struct {
	prog     *Program
	classes  map[*types.Var]*lockClass
	graph    *callGraph
	acquires map[*types.Func]map[string]bool
	tainted  map[*types.Func]bool
	names    map[string]string
	edges    map[[2]string][]lockEdge
	diags    []Diagnostic

	held []heldLock
}

// scanScope runs one scope (a FuncDecl or FuncLit body) with an empty held set.
func (s *lockScanner) scanScope(pkg *Package, body ast.Node) {
	saved := s.held
	s.held = nil
	s.walk(pkg, body)
	s.held = saved
}

func (s *lockScanner) walk(pkg *Package, n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			s.scanScope(pkg, n.Body)
			return false
		case *ast.GoStmt:
			// Runs on a fresh stack: scan args (evaluated now), skip the
			// call itself.
			for _, a := range n.Call.Args {
				s.walk(pkg, a)
			}
			return false
		case *ast.DeferStmt:
			s.handleDefer(pkg, n)
			return false
		case *ast.IfStmt:
			s.walkIf(pkg, n)
			return false
		case *ast.SelectStmt:
			s.walkSelect(pkg, n)
			return false
		case *ast.SendStmt:
			if hot := s.heldHot(); hot != nil {
				s.diags = append(s.diags, Diagnostic{"lockorder", s.prog.Position(n.Arrow),
					fmt.Sprintf("channel send while holding hot lock %s; a full channel stalls every other holder", hot.name)})
			}
			return true
		case *ast.CallExpr:
			s.handleCall(pkg, n)
			return true
		}
		return true
	})
}

// walkIf isolates the branches: each starts from the pre-if held set,
// and the post-if held set is the intersection of the branch outcomes
// (conservative: a lock released in only one branch counts as released).
func (s *lockScanner) walkIf(pkg *Package, n *ast.IfStmt) {
	if n.Init != nil {
		s.walk(pkg, n.Init)
	}
	s.walk(pkg, n.Cond)
	before := append([]heldLock(nil), s.held...)
	s.walk(pkg, n.Body)
	after := s.held
	s.held = before
	if n.Else != nil {
		s.walk(pkg, n.Else)
	}
	s.held = intersectHeld(after, s.held)
}

// walkSelect scans the comm clauses. With a default case the comm ops are
// non-blocking, so their sends are sanctioned; clause bodies always scan.
func (s *lockScanner) walkSelect(pkg *Package, n *ast.SelectStmt) {
	hasDefault := selectHasDefault(n)
	for _, clause := range n.Body.List {
		cc, ok := clause.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm != nil && !hasDefault {
			s.walk(pkg, cc.Comm)
		}
		for _, stmt := range cc.Body {
			s.walk(pkg, stmt)
		}
	}
}

func selectHasDefault(n *ast.SelectStmt) bool {
	for _, clause := range n.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// handleDefer processes a deferred call: a deferred Unlock keeps the lock
// held to scope end (the critical section is the rest of the function);
// any other deferred call records no hazards (it runs at return, when the
// held set is unknowable statically). Arguments evaluate now.
func (s *lockScanner) handleDefer(pkg *Package, n *ast.DeferStmt) {
	op, _ := mutexOp(pkg.Info, n.Call, s.classes)
	if op == "" {
		for _, a := range n.Call.Args {
			s.walk(pkg, a)
		}
	}
	// Deferred Lock/Unlock: no held-set change now; deferred Unlock means
	// the lock simply stays held for the rest of the linear scan, which is
	// exactly what the defer idiom encodes.
}

func (s *lockScanner) handleCall(pkg *Package, call *ast.CallExpr) {
	info := pkg.Info
	if op, cls := mutexOp(info, call, s.classes); op != "" {
		switch op {
		case "Lock", "RLock", "TryLock":
			for _, h := range s.held {
				if h.cls.key == cls.key {
					s.diags = append(s.diags, Diagnostic{"lockorder", s.prog.Position(call.Pos()),
						fmt.Sprintf("lock %s acquired while another %s is already held; stripe locks need a fixed index order the analyzer cannot verify", cls.name, h.cls.name)})
					continue
				}
				s.edges[[2]string{h.cls.key, cls.key}] = append(
					s.edges[[2]string{h.cls.key, cls.key}],
					lockEdge{pos: s.prog.Position(call.Pos())})
			}
			s.held = append(s.held, heldLock{cls: cls, pos: call.Pos()})
		case "Unlock", "RUnlock":
			for i := len(s.held) - 1; i >= 0; i-- {
				if s.held[i].cls.key == cls.key {
					s.held = append(s.held[:i], s.held[i+1:]...)
					break
				}
			}
		}
		return
	}

	fn := calleeFunc(info, call)
	if fn == nil {
		return
	}
	if len(s.held) > 0 {
		// Interprocedural ordering: the callee's transitive acquisitions
		// happen while our held set is held. Sorted so diagnostic order
		// does not depend on map iteration.
		keys := make([]string, 0, len(s.acquires[fn]))
		for key := range s.acquires[fn] {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			for _, h := range s.held {
				if h.cls.key == key {
					s.diags = append(s.diags, Diagnostic{"lockorder", s.prog.Position(call.Pos()),
						fmt.Sprintf("call to %s may re-acquire %s, which is already held", fn.Name(), h.cls.name)})
					continue
				}
				s.edges[[2]string{h.cls.key, key}] = append(
					s.edges[[2]string{h.cls.key, key}],
					lockEdge{pos: s.prog.Position(call.Pos()), via: fn.Name()})
			}
		}
	}
	if hot := s.heldHot(); hot != nil {
		if blockingCall(fn) {
			s.diags = append(s.diags, Diagnostic{"lockorder", s.prog.Position(call.Pos()),
				fmt.Sprintf("blocking call %s while holding hot lock %s; move the I/O outside the critical section", funcDisplay(fn), hot.name)})
		} else if s.tainted[fn] {
			s.diags = append(s.diags, Diagnostic{"lockorder", s.prog.Position(call.Pos()),
				fmt.Sprintf("call to %s may block (it reaches I/O or a channel send) while holding hot lock %s", fn.Name(), hot.name)})
		}
	}
}

// heldHot returns the first held hot lock, or nil.
func (s *lockScanner) heldHot() *lockClass {
	for _, h := range s.held {
		if h.cls.hot {
			return h.cls
		}
	}
	return nil
}

func intersectHeld(a, b []heldLock) []heldLock {
	var out []heldLock
	for _, h := range a {
		for _, g := range b {
			if h.cls.key == g.cls.key {
				out = append(out, h)
				break
			}
		}
	}
	return out
}

// funcDisplay renders a callee for messages: (*os.File).Sync, time.Sleep.
func funcDisplay(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			if named, ok := p.Elem().(*types.Named); ok {
				return fmt.Sprintf("(*%s.%s).%s", pkgBase(named.Obj().Pkg().Path()), named.Obj().Name(), fn.Name())
			}
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("(%s.%s).%s", pkgBase(named.Obj().Pkg().Path()), named.Obj().Name(), fn.Name())
		}
		return fn.Name()
	}
	if fn.Pkg() != nil {
		return pkgBase(fn.Pkg().Path()) + "." + fn.Name()
	}
	return fn.Name()
}

// pkgBase returns the last path element of a package path.
func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
