package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// durability enforces the error discipline of the durable-I/O packages
// (DESIGN.md §14). A package declares itself durable by importing the
// failpoint helpers or the record log built on them (internal/recordlog,
// under the ledger and the journal), and the apiv1 wire-format package is
// durable by fiat. Inside the durable surface:
//
//   - The error of a durable operation — the failpoint helpers, the
//     write/sync/flush/truncate/close family on *os.File and
//     *bufio.Writer, and the write-shaped methods of the repo's own
//     durable types (recordlog.Log, Journal.Submit/Record, Ledger) —
//     must never be dropped: not as a bare statement, not behind a
//     blank assignment, not behind defer or go. The one sanctioned
//     discard is `_ = f.Close()` on an error path where a more specific
//     error is already being returned: Close alone may be blanked, and
//     the blank is the visible acknowledgment.
//
//   - An error wrapped for return must use %w, so the typed chain
//     (apiv1.Error, the failpoint injection errors) survives errors.As
//     at the API boundary. fmt.Errorf with an error argument and no %w
//     flattens the chain into ad-hoc prose.
type durability struct{}

func (durability) Name() string { return "durability" }

func (durability) Doc() string {
	return "durable-write errors (failpoint helpers, os/bufio writers, record log/journal/ledger methods) must be checked and wrapped with %w, never dropped"
}

// durablePkg reports whether the package is part of the durable surface:
// it imports the failpoint helpers or the record log, or it is the apiv1
// wire format.
func durablePkg(pkg *Package) bool {
	if strings.HasSuffix(pkg.Path, "internal/campaign/apiv1") {
		return true
	}
	if strings.HasSuffix(pkg.Path, "internal/failpoint") {
		return false // the injector itself, not a durable writer
	}
	for _, imp := range pkg.Types.Imports() {
		if strings.HasSuffix(imp.Path(), "internal/failpoint") || strings.HasSuffix(imp.Path(), "internal/recordlog") {
			return true
		}
	}
	return false
}

// durableWriteNames are the write-shaped method names that carry
// durability obligations on the repo's own types.
var durableWriteNames = map[string]bool{
	"Write": true, "WriteString": true, "WriteAt": true, "Sync": true,
	"Close": true, "Flush": true, "Truncate": true, "Seek": true,
	"Submit": true, "Record": true, "Append": true, "Complete": true,
	"Poison": true, "Compact": true,
}

// osFileMethods / bufioWriterMethods are the stdlib durable ops.
var osFileMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteAt": true, "Sync": true,
	"Close": true, "Flush": true, "Truncate": true, "Seek": true,
}
var bufioWriterMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Flush": true,
}

func (d durability) Run(prog *Program) []Diagnostic {
	durable := map[string]bool{}
	for _, pkg := range prog.Pkgs {
		durable[pkg.Path] = durablePkg(pkg)
	}
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		if !durable[pkg.Path] {
			continue
		}
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok {
						if desc, ok := d.durableCall(info, call, durable); ok {
							diags = append(diags, Diagnostic{"durability", prog.Position(call.Pos()),
								fmt.Sprintf("%s error is discarded; durable-write errors must be checked and surfaced through the typed apiv1 chain", desc)})
						}
					}
				case *ast.AssignStmt:
					diags = append(diags, d.checkBlankAssign(prog, info, n, durable)...)
				case *ast.DeferStmt:
					if desc, ok := d.durableCall(info, n.Call, durable); ok {
						diags = append(diags, Diagnostic{"durability", prog.Position(n.Call.Pos()),
							fmt.Sprintf("deferred %s discards its error; capture it in a named return or check it inline", desc)})
					}
				case *ast.GoStmt:
					if desc, ok := d.durableCall(info, n.Call, durable); ok {
						diags = append(diags, Diagnostic{"durability", prog.Position(n.Call.Pos()),
							fmt.Sprintf("%s launched with go discards its error; durable-write errors must be checked", desc)})
					}
				case *ast.CallExpr:
					diags = append(diags, d.checkProseWrap(prog, info, n)...)
				}
				return true
			})
		}
	}
	sortDiags(diags)
	return diags
}

// checkBlankAssign flags `_ = durableCall(...)` and `_, _ = ...` forms.
// A blank assignment of a bare Close is sanctioned: on an error path the
// blank is the explicit acknowledgment that a better error is already in
// flight.
func (d durability) checkBlankAssign(prog *Program, info *types.Info, n *ast.AssignStmt, durable map[string]bool) []Diagnostic {
	for _, lhs := range n.Lhs {
		if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
			return nil
		}
	}
	if len(n.Rhs) != 1 {
		return nil
	}
	call, ok := n.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	desc, ok := d.durableCall(info, call, durable)
	if !ok {
		return nil
	}
	if fn := calleeFunc(info, call); fn != nil && fn.Name() == "Close" {
		return nil // `_ = f.Close()` on an error path: explicit, sanctioned
	}
	return []Diagnostic{{"durability", prog.Position(call.Pos()),
		fmt.Sprintf("%s error is discarded behind a blank assignment; durable-write errors must be checked", desc)}}
}

// durableCall reports whether the call is a durable operation whose error
// the caller is obliged to handle, with a display name.
func (d durability) durableCall(info *types.Info, call *ast.CallExpr, durable map[string]bool) (string, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", false
	}
	path := fn.Pkg().Path()
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || !returnsError(sig) {
		return "", false
	}
	if strings.HasSuffix(path, "internal/failpoint") {
		return "failpoint." + fn.Name(), true
	}
	if recv := recvNamed(sig); recv != nil {
		rpkg := recv.Obj().Pkg()
		if rpkg == nil {
			return "", false
		}
		switch {
		case rpkg.Path() == "os" && recv.Obj().Name() == "File" && osFileMethods[fn.Name()]:
			return funcDisplay(fn), true
		case rpkg.Path() == "bufio" && recv.Obj().Name() == "Writer" && bufioWriterMethods[fn.Name()]:
			return funcDisplay(fn), true
		case durable[rpkg.Path()] && durableWriteNames[fn.Name()]:
			return funcDisplay(fn), true
		}
		return "", false
	}
	// Package-level durable ops.
	if path == "os" {
		switch fn.Name() {
		case "WriteFile", "Remove", "Rename", "Truncate":
			return "os." + fn.Name(), true
		}
	}
	return "", false
}

// checkProseWrap flags fmt.Errorf calls that wrap an error argument
// without %w: the typed chain is flattened into prose.
func (d durability) checkProseWrap(prog *Program, info *types.Info, call *ast.CallExpr) []Diagnostic {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
		return nil
	}
	if len(call.Args) < 2 {
		return nil
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return nil
	}
	format := constant.StringVal(tv.Value)
	if strings.Contains(format, "%w") {
		return nil
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, arg := range call.Args[1:] {
		atv, ok := info.Types[arg]
		if !ok || atv.Type == nil {
			continue
		}
		if types.Implements(atv.Type, errIface) {
			return []Diagnostic{{"durability", prog.Position(call.Pos()),
				"fmt.Errorf wraps an error without %w: ad-hoc prose loses the typed chain (apiv1, failpoint) that errors.As recovers at the API boundary"}}
		}
	}
	return nil
}

// returnsError reports whether the signature's last result is error.
func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// recvNamed returns the receiver's named type (through a pointer), or nil.
func recvNamed(sig *types.Signature) *types.Named {
	recv := sig.Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
