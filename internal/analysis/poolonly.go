package analysis

import "go/ast"

// Poolonly keeps the round engine single-goroutine: inside
// internal/congest, no `go` statement is allowed anywhere. Run executes
// every round on the caller goroutine and RunShard on its host's, so the
// deterministic merge order (invariant I5) never depends on scheduling.
// Parallelism lives in the multi-process fleet, behind the Transport seam,
// where goroutines belong to the transport implementation and the round
// barrier is the only synchronization point. There is deliberately no
// exemption, neither by file nor by directive.
var Poolonly = &Analyzer{
	Name:     "poolonly",
	Doc:      "forbid go statements in internal/congest (the round engine is single-goroutine)",
	Packages: []string{"dfl/internal/congest"},
	Run:      runPoolonly,
}

func runPoolonly(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "go statement in the round engine: the engine is single-goroutine (I5); put concurrency behind a Transport")
			}
			return true
		})
	}
}
