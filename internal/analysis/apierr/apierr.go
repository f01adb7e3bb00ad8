// Package apierr proves the typed-error-envelope invariant of the
// /v1/* wire contract: handler packages must emit errors through the
// envelope helpers (server.writeErr / gateway.WriteError), never
// through naked http.Error or http.NotFound — those write text/plain
// bodies the typed client cannot map onto errors.Is-able sentinels.
//
// Each finding carries a suggested fix that rewrites the call to the
// package's envelope helper, picking the wire code from the status
// argument when it is a constant; hodlint -fix applies it, so future
// PRs can auto-migrate.
package apierr

import (
	"fmt"
	"go/ast"
	"strings"

	"repro/internal/analysis"
)

// Config scopes the analyzer and names each package's envelope
// helper. A Helper is a format string receiving (writer, status, wire
// code, message) argument texts.
type Config struct {
	// BoundaryPkgs are import-path prefixes of handler packages.
	BoundaryPkgs []string
	// Helpers maps a package path (or prefix) to its envelope-helper
	// call template; FallbackHelper is used when no entry matches.
	Helpers        map[string]string
	FallbackHelper string
	// CodeForStatus maps known HTTP status values to wire-code source
	// text; FallbackCode covers the rest (and non-constant statuses).
	CodeForStatus map[int64]string
	FallbackCode  string
}

// DefaultConfig is the repo's production wiring.
var DefaultConfig = Config{
	BoundaryPkgs: []string{"repro/internal/server", "repro/internal/gateway"},
	Helpers: map[string]string{
		"repro/internal/server":  "writeErr(%s, %s, %s, %s)",
		"repro/internal/gateway": "WriteError(%s, %s, %s, %s)",
	},
	FallbackHelper: "gateway.WriteError(%s, %s, %s, %s)",
	CodeForStatus: map[int64]string{
		400: "wire.CodeBadRequest",
		401: "wire.CodeUnauthorized",
		403: "wire.CodeForbidden",
		404: "wire.CodeUnknownPlant",
		429: "wire.CodeRateLimited",
		500: "wire.CodeInternal",
		503: "wire.CodeShuttingDown",
	},
	FallbackCode: "wire.CodeInternal",
}

// New builds the analyzer with an explicit config (tests use this).
func New(cfg Config) *analysis.Analyzer {
	a := &analyzer{cfg: cfg}
	return &analysis.Analyzer{
		Name: "apierr",
		Doc:  "handler packages must emit errors through the typed wire envelope, not http.Error",
		Run:  a.run,
	}
}

// Analyzer is the production-configured instance.
var Analyzer = New(DefaultConfig)

type analyzer struct {
	cfg Config
}

func (a *analyzer) inScope(path string) bool {
	for _, p := range a.cfg.BoundaryPkgs {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

func (a *analyzer) helperFor(path string) string {
	if h, ok := a.cfg.Helpers[path]; ok {
		return h
	}
	best := ""
	var tmpl string
	for p, h := range a.cfg.Helpers {
		if strings.HasPrefix(path, p+"/") && len(p) > len(best) {
			best, tmpl = p, h
		}
	}
	if tmpl != "" {
		return tmpl
	}
	return a.cfg.FallbackHelper
}

func (a *analyzer) run(pass *analysis.Pass) {
	if !a.inScope(pass.Pkg.Path) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := pass.Pkg.CalleeOf(call)
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "net/http" {
				return true
			}
			switch callee.Name() {
			case "Error":
				a.reportError(pass, call)
			case "NotFound":
				a.reportNotFound(pass, call)
			}
			return true
		})
	}
}

// argText extracts the original source text of an expression.
func argText(pass *analysis.Pass, e ast.Expr) string {
	p := pass.Prog.Fset.Position(e.Pos())
	q := pass.Prog.Fset.Position(e.End())
	return pass.Prog.SrcText(pass.Pkg, p.Offset, q.Offset, p.Filename)
}

// codeFor picks the wire code text for the status expression.
func (a *analyzer) codeFor(pass *analysis.Pass, status ast.Expr) string {
	if tv, ok := pass.Pkg.Info.Types[status]; ok && tv.Value != nil {
		if v, exact := constInt(tv.Value.ExactString()); exact {
			if code, ok := a.cfg.CodeForStatus[v]; ok {
				return code
			}
		}
	}
	return a.cfg.FallbackCode
}

func constInt(s string) (int64, bool) {
	var v int64
	_, err := fmt.Sscanf(s, "%d", &v)
	return v, err == nil
}

func (a *analyzer) reportError(pass *analysis.Pass, call *ast.CallExpr) {
	d := analysis.Diagnostic{
		Pos:     call.Pos(),
		Message: "http.Error writes a text/plain body outside the typed wire envelope; use the package's envelope helper",
	}
	if len(call.Args) == 3 {
		w, msg, status := argText(pass, call.Args[0]), argText(pass, call.Args[1]), argText(pass, call.Args[2])
		code := a.codeFor(pass, call.Args[2])
		d.Fix = &analysis.SuggestedFix{
			Message: "rewrite to the typed envelope helper",
			Edits: []analysis.TextEdit{{
				Pos:     call.Pos(),
				End:     call.End(),
				NewText: fmt.Sprintf(a.helperFor(pass.Pkg.Path), w, status, code, msg),
			}},
		}
	}
	pass.Report(d)
}

func (a *analyzer) reportNotFound(pass *analysis.Pass, call *ast.CallExpr) {
	d := analysis.Diagnostic{
		Pos:     call.Pos(),
		Message: "http.NotFound writes a text/plain body outside the typed wire envelope; use the package's envelope helper",
	}
	if len(call.Args) == 2 {
		w := argText(pass, call.Args[0])
		code := a.cfg.CodeForStatus[404]
		if code == "" {
			code = a.cfg.FallbackCode
		}
		d.Fix = &analysis.SuggestedFix{
			Message: "rewrite to the typed envelope helper",
			Edits: []analysis.TextEdit{{
				Pos:     call.Pos(),
				End:     call.End(),
				NewText: fmt.Sprintf(a.helperFor(pass.Pkg.Path), w, "http.StatusNotFound", code, `"not found"`),
			}},
		}
	}
	pass.Report(d)
}
