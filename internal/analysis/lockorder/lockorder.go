// Package lockorder proves the no-blocking-under-locks invariant:
// while a sync.Mutex/RWMutex is held, a function must not perform a
// blocking channel operation, sleep, do file or network I/O, or call
// a module function that (transitively) does. Non-blocking tries —
// selects with a default clause — are explicitly fine: that is how
// the shard queues shed load under locks.
//
// Critical sections are tracked syntactically per statement list:
// mu.Lock() opens one, the matching mu.Unlock() closes it, and
// `defer mu.Unlock()` holds it to the end of the function. May-block
// facts for module functions come from a fixpoint over the static
// call graph seeded with direct evidence (blocking channel ops,
// time.Sleep, and an I/O denylist over os / net / net/http / bufio
// and friends).
package lockorder

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Config tunes the analyzer. OpLocks names mutex fields that exist
// to serialize whole operations (snapshot writes, cluster moves,
// report fan-outs) rather than to guard in-memory state: blocking
// inside them is their purpose, so they are exempt. The invariant
// targets data locks, where a blocked holder stalls every reader.
type Config struct {
	OpLocks []string
}

// DefaultConfig is the repo's production wiring: opMu (cluster op
// serializers on router and server), reportMu (one report fan-out at
// a time), runMu (one Algorithm 1 run per hierarchy at a time in the
// SDK engine; the run fans its phase profile out across sensors), and
// snapMu (one snapshot writer at a time).
var DefaultConfig = Config{
	OpLocks: []string{"opMu", "reportMu", "runMu", "snapMu"},
}

// New builds the analyzer with an explicit config (tests use this).
func New(cfg Config) *analysis.Analyzer {
	a := &analyzerState{cfg: cfg}
	return &analysis.Analyzer{
		Name: "lockorder",
		Doc:  "forbid blocking channel ops, sleeps, and I/O while a mutex is held",
		Run:  a.run,
	}
}

// Analyzer is the production-configured instance.
var Analyzer = New(DefaultConfig)

type analyzerState struct {
	cfg Config
}

// isOpLock reports whether a held-lock key ("rt.opMu", "s.snapMu")
// names an exempted operation serializer by its final field name.
func (a *analyzerState) isOpLock(key string) bool {
	name := key
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		name = key[i+1:]
	}
	for _, n := range a.cfg.OpLocks {
		if n == name {
			return true
		}
	}
	return false
}

// blockEvidence explains why a function may block, for diagnostics:
// either direct ("sleeps", "does file I/O via os.Create") or a short
// call chain ("calls wal.AppendBuffered, which does file I/O ...").
type blockEvidence struct {
	what string
}

func (a *analyzerState) run(pass *analysis.Pass) {
	facts := mayBlockFacts(pass.Prog)
	for _, node := range pass.Prog.CallGraph().Nodes {
		if node.Pkg != pass.Pkg {
			continue
		}
		w := &walker{pass: pass, a: a, facts: facts}
		w.stmts(node.Decl.Body.List, nil)
	}
}

// mayBlockFacts computes, once per program, which module functions
// may block, with a human-readable why.
func mayBlockFacts(prog *analysis.Program) map[*types.Func]*blockEvidence {
	return prog.Cached("lockorder.mayblock", func() any {
		g := prog.CallGraph()
		facts := map[*types.Func]*blockEvidence{}
		// Seed: direct evidence in each body.
		for fn, node := range g.Nodes {
			if what := directBlocking(node); what != "" {
				facts[fn] = &blockEvidence{what: what}
			}
		}
		// Propagate through module call edges to fixpoint.
		for changed := true; changed; {
			changed = false
			for fn, node := range g.Nodes {
				if facts[fn] != nil {
					continue
				}
				for _, cs := range node.Calls {
					if cs.InGo || cs.InFuncLit {
						// Runs concurrently or only when the literal
						// runs: neither blocks this function's caller.
						continue
					}
					ev := facts[cs.Callee]
					if ev == nil {
						continue
					}
					what := ev.what
					if !strings.HasPrefix(what, "calls ") {
						what = fmt.Sprintf("calls %s, which %s", calleeLabel(cs.Callee), what)
					} else {
						what = fmt.Sprintf("calls %s, which may block (%s)", calleeLabel(cs.Callee), what)
					}
					facts[fn] = &blockEvidence{what: what}
					changed = true
					break
				}
			}
		}
		return facts
	}).(map[*types.Func]*blockEvidence)
}

func calleeLabel(fn *types.Func) string {
	if p := fn.Pkg(); p != nil {
		return p.Name() + "." + fn.Name()
	}
	return fn.Name()
}

// directBlocking scans one body for first-hand blocking evidence.
func directBlocking(node *analysis.FuncNode) string {
	var what string
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if what != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			if selectHasDefault(n) {
				return false // non-blocking try; nothing under it blocks
			}
			what = "contains a blocking select"
			return false
		case *ast.SendStmt:
			what = "sends on a channel"
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				what = "receives from a channel"
				return false
			}
		case *ast.CallExpr:
			if callee := node.Pkg.CalleeOf(n); callee != nil {
				if w := stdlibBlocking(callee); w != "" {
					what = w
					return false
				}
			}
		case *ast.GoStmt:
			return false // the spawned body runs elsewhere
		case *ast.FuncLit:
			return false // runs when the literal runs, not here
		}
		return true
	}
	ast.Inspect(node.Decl.Body, visit)
	return what
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// ioFuncs is the stdlib denylist: functions and methods that touch
// the disk or the network. Keyed by package path; "*" entries are
// function names, "T.M" entries are method names on any receiver in
// that package (embedding-safe: the method's own package is checked).
var ioFuncs = map[string]map[string]string{
	"time": {
		"Sleep": "sleeps",
	},
	"os": {
		"Open": "does file I/O", "OpenFile": "does file I/O", "Create": "does file I/O",
		"CreateTemp": "does file I/O", "MkdirTemp": "does file I/O",
		"ReadFile": "does file I/O", "WriteFile": "does file I/O", "ReadDir": "does file I/O",
		"Remove": "does file I/O", "RemoveAll": "does file I/O", "Rename": "does file I/O",
		"Mkdir": "does file I/O", "MkdirAll": "does file I/O",
		"Stat": "does file I/O", "Lstat": "does file I/O", "Truncate": "does file I/O",
		"Chmod": "does file I/O", "Chtimes": "does file I/O", "Symlink": "does file I/O",
		// *os.File methods
		"Read": "does file I/O", "ReadAt": "does file I/O", "Write": "does file I/O",
		"WriteAt": "does file I/O", "WriteString": "does file I/O", "Seek": "does file I/O",
		"Sync": "fsyncs", "Close": "does file I/O", "Readdirnames": "does file I/O",
	},
	"net": {
		"Dial": "does network I/O", "DialTimeout": "does network I/O", "Listen": "does network I/O",
		"Accept": "does network I/O", "Read": "does network I/O", "Write": "does network I/O",
		"Close": "does network I/O",
	},
	"net/http": {
		"Get": "does network I/O", "Post": "does network I/O", "PostForm": "does network I/O",
		"Head": "does network I/O", "Do": "does network I/O",
	},
	"bufio": {
		"Flush": "flushes buffered I/O",
	},
	"sync": {
		"Wait": "waits on a sync primitive",
	},
	"io": {
		"Copy": "does I/O", "CopyN": "does I/O", "ReadAll": "does I/O", "ReadFull": "does I/O",
	},
}

func stdlibBlocking(fn *types.Func) string {
	p := fn.Pkg()
	if p == nil {
		return ""
	}
	if m := ioFuncs[p.Path()]; m != nil {
		return m[fn.Name()]
	}
	return ""
}

// heldLock is one currently-held mutex, identified by the source text
// of its receiver expression.
type heldLock struct {
	key  string
	read bool // RLock
}

type walker struct {
	pass  *analysis.Pass
	a     *analyzerState
	facts map[*types.Func]*blockEvidence
}

// stmts walks one statement list tracking the held-lock stack. Nested
// blocks inherit a copy: an unlock inside an if-branch releases only
// on that path.
func (w *walker) stmts(list []ast.Stmt, held []heldLock) {
	held = append([]heldLock(nil), held...)
	for _, stmt := range list {
		if key, op, read := w.lockOp(stmt); key != "" {
			if w.a.isOpLock(key) {
				continue // exempted operation serializer
			}
			switch op {
			case "lock":
				held = append(held, heldLock{key: key, read: read})
			case "unlock":
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].key == key {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			case "deferunlock":
				// Held for the remainder of this list. If it is not
				// currently on the stack (Lock came earlier via a
				// helper), conservatively add it.
				found := false
				for _, h := range held {
					if h.key == key {
						found = true
					}
				}
				if !found {
					held = append(held, heldLock{key: key, read: read})
				}
			}
			continue
		}
		// Compound statements: check their header parts (init/cond),
		// then recurse into bodies with lock-op tracking; everything
		// else is checked whole.
		switch s := stmt.(type) {
		case *ast.BlockStmt:
			w.stmts(s.List, held)
		case *ast.IfStmt:
			w.checkHeld(held, s.Init, s.Cond)
			w.stmts(s.Body.List, held)
			if s.Else != nil {
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					w.stmts(e.List, held)
				case *ast.IfStmt:
					w.stmts([]ast.Stmt{e}, held)
				}
			}
		case *ast.ForStmt:
			w.checkHeld(held, s.Init, s.Cond, s.Post)
			w.stmts(s.Body.List, held)
		case *ast.RangeStmt:
			w.checkHeld(held, s.X)
			w.stmts(s.Body.List, held)
		case *ast.SwitchStmt:
			w.checkHeld(held, s.Init, s.Tag)
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.stmts(cc.Body, held)
				}
			}
		case *ast.TypeSwitchStmt:
			w.checkHeld(held, s.Init)
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.stmts(cc.Body, held)
				}
			}
		default:
			w.checkHeld(held, stmt)
		}
	}
}

// checkHeld checks each non-nil node if any lock is held.
func (w *walker) checkHeld(held []heldLock, nodes ...ast.Node) {
	if len(held) == 0 {
		return
	}
	for _, n := range nodes {
		switch n := n.(type) {
		case nil:
		case ast.Stmt:
			w.check(n, held)
		case ast.Expr:
			w.check(n, held)
		}
	}
}

// lockOp classifies a statement as a lock/unlock/defer-unlock on a
// sync mutex, returning the receiver key.
func (w *walker) lockOp(stmt ast.Stmt) (key, op string, read bool) {
	var call *ast.CallExpr
	deferred := false
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.DeferStmt:
		call = s.Call
		deferred = true
	}
	if call == nil {
		return "", "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	fn := w.pass.Pkg.CalleeOf(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock":
		if !deferred {
			return exprKey(sel.X), "lock", false
		}
	case "RLock":
		if !deferred {
			return exprKey(sel.X), "lock", true
		}
	case "Unlock":
		if deferred {
			return exprKey(sel.X), "deferunlock", false
		}
		return exprKey(sel.X), "unlock", false
	case "RUnlock":
		if deferred {
			return exprKey(sel.X), "deferunlock", true
		}
		return exprKey(sel.X), "unlock", true
	}
	return "", "", false
}

func exprKey(e ast.Expr) string {
	var b strings.Builder
	_ = printer.Fprint(&b, token.NewFileSet(), e)
	return b.String()
}

// check scans one statement or expression executed with locks held.
func (w *walker) check(node ast.Node, held []heldLock) {
	lock := held[len(held)-1]
	mode := "mutex"
	if lock.read {
		mode = "read lock"
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs later, not under this lock (immediate calls are rare enough to accept the gap)
		case *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			return false
		case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt:
			return false // handled by stmts() recursion with lock-op tracking
		case *ast.SelectStmt:
			if selectHasDefault(n) {
				return false // non-blocking try: the sanctioned pattern
			}
			w.pass.Reportf(n.Pos(), "blocking select while holding %s %q; use a select with default or move it outside the critical section", mode, lock.key)
			return false
		case *ast.SendStmt:
			w.pass.Reportf(n.Pos(), "channel send while holding %s %q; use a non-blocking select or move it outside the critical section", mode, lock.key)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.pass.Reportf(n.Pos(), "channel receive while holding %s %q; move it outside the critical section", mode, lock.key)
				return false
			}
		case *ast.CallExpr:
			callee := w.pass.Pkg.CalleeOf(n)
			if callee == nil {
				return true
			}
			if what := stdlibBlocking(callee); what != "" {
				w.pass.Reportf(n.Pos(), "%s %s while holding %s %q; move it outside the critical section", calleeLabel(callee), what, mode, lock.key)
				return true
			}
			if ev := w.facts[callee]; ev != nil {
				w.pass.Reportf(n.Pos(), "call to %s while holding %s %q may block: it %s", calleeLabel(callee), mode, lock.key, ev.what)
			}
		}
		return true
	}
	ast.Inspect(node, visit)
}
