package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// commitPathPackages are the packages (by final import-path element)
// whose output feeds committed state: world state, validation codes, the
// hash chain, persisted CRDT documents. Anything non-deterministic here —
// wall-clock reads, randomness, unordered map iteration — breaks the
// paper's core claim of byte-identical commits at any worker count.
var commitPathPackages = map[string]bool{
	"core":     true,
	"mvcc":     true,
	"crdt":     true,
	"jsoncrdt": true,
	"peer":     true,
	"channel":  true,
	"ledger":   true,
}

// runDeterminism flags, in commit-path packages (production files only):
//
//   - time.Now calls — wall-clock values must never reach committed
//     state (Lamport timestamps carry logical time);
//   - math/rand and math/rand/v2 imports — commit outcomes must be pure
//     functions of the block;
//   - range over a map type without a //lint:sorted annotation —
//     Go map iteration order is deliberately randomized, so an
//     unannotated loop is a byte-identical-replay bug waiting to
//     surface. The annotation asserts the loop's effect is
//     iteration-order independent or explicitly sorted afterwards.
func runDeterminism(p *Program) []Finding {
	var findings []Finding
	for _, u := range p.Units {
		if !commitPathPackages[lastPathElement(u.Path)] {
			continue
		}
		for _, f := range u.Files {
			if u.TestFile[f] {
				continue
			}
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if ip == "math/rand" || ip == "math/rand/v2" {
					findings = append(findings, Finding{
						Check:   "determinism",
						Pos:     p.Fset.Position(imp.Pos()),
						Message: fmt.Sprintf("import of %s in commit-path package %s — commit outcomes must be pure functions of the block", ip, u.Name),
					})
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						if fn, ok := u.Info.Uses[sel.Sel].(*types.Func); ok &&
							fn.Name() == "Now" && fn.Pkg() != nil && fn.Pkg().Path() == "time" {
							findings = append(findings, Finding{
								Check:   "determinism",
								Pos:     p.Fset.Position(n.Pos()),
								Message: "time.Now in commit-path package — wall-clock values must not feed committed state",
							})
						}
					}
				case *ast.RangeStmt:
					tv, ok := u.Info.Types[n.X]
					if !ok {
						return true
					}
					if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
						return true
					}
					pos := p.Fset.Position(n.Pos())
					if sortedAnnotated(p.dirs, pos) {
						return true
					}
					findings = append(findings, Finding{
						Check:   "determinism",
						Pos:     pos,
						Message: fmt.Sprintf("range over map %s in commit-path package — unordered iteration feeding committed state breaks byte-identical replay; sort the keys or annotate //lint:sorted <reason>", exprText(n.X)),
					})
				}
				return true
			})
		}
	}
	return findings
}
