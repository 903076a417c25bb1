package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// failpointcoverage keeps the crash-injection surface complete
// (DESIGN.md §14): inside the durable packages (the ones that import the
// failpoint helpers or the record log, plus apiv1), every mutating
// operation on a durable file — Write/WriteString/WriteAt/Sync/Truncate
// on *os.File, and Write/Flush and friends on *bufio.Writer — must route
// through a failpoint-instrumented helper (failpoint.Write/Sync), never
// be called directly. A direct call is invisible to the kill -9 replay and
// torn-write tests, so a new writer added this way would ship with its
// crash behaviour untested. Reads (ReadAt) and lifecycle Close calls are
// out of scope: they do not mutate durable bytes, and the close-path
// fsync is already a failpoint site.
type failpointcoverage struct{}

func (failpointcoverage) Name() string { return "failpointcoverage" }

func (failpointcoverage) Doc() string {
	return "durable-file writes/syncs in failpoint-instrumented packages must route through failpoint.Write/Sync, never call the file directly"
}

// fpFileMethods / fpBufioMethods are the mutating ops that must be
// wrapped.
var fpFileMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteAt": true,
	"Sync": true, "Truncate": true,
}
var fpBufioMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true,
	"WriteRune": true, "Flush": true,
}

func (f failpointcoverage) Run(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Pkgs {
		if !durablePkg(pkg) {
			continue
		}
		info := pkg.Info
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(info, call)
				if fn == nil {
					return true
				}
				sig, _ := fn.Type().(*types.Signature)
				if sig == nil {
					return true
				}
				recv := recvNamed(sig)
				if recv == nil || recv.Obj().Pkg() == nil {
					return true
				}
				switch {
				case recv.Obj().Pkg().Path() == "os" && recv.Obj().Name() == "File" && fpFileMethods[fn.Name()]:
				case recv.Obj().Pkg().Path() == "bufio" && recv.Obj().Name() == "Writer" && fpBufioMethods[fn.Name()]:
				default:
					return true
				}
				diags = append(diags, Diagnostic{"failpointcoverage", prog.Position(call.Pos()),
					fmt.Sprintf("direct %s escapes failpoint crash-injection; route the op through failpoint.Write/Sync so kill and torn-write tests cover it", funcDisplay(fn))})
				return true
			})
		}
	}
	sortDiags(diags)
	return diags
}
