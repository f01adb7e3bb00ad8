// Command hodlint is the repo's multichecker: it loads the module
// from source and runs the four invariant analyzers —
//
//	hotpath      zero allocation idioms reachable from //hod:hotpath roots
//	lockorder    no blocking work while a shard/plant mutex is held
//	determinism  no map-order / time.Now / math/rand leaks into serialized surfaces
//	apierr       typed error envelopes on every /v1/* boundary
//
// Usage:
//
//	go run ./cmd/hodlint ./...             lint the tree (exit 1 on findings)
//	go run ./cmd/hodlint -json ./...       machine-readable findings + suppressions
//	go run ./cmd/hodlint -fix ./...        apply suggested fixes (apierr rewrites)
//	go run ./cmd/hodlint -run apierr ./...  run a subset of analyzers
//
// Suppressions (//hod:allow(analyzer) reason) are honored and
// counted; they are printed to stderr so a silent opt-out cannot
// accumulate unnoticed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/apierr"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/hotpath"
	"repro/internal/analysis/lockorder"
)

var all = []*analysis.Analyzer{
	hotpath.Analyzer,
	lockorder.Analyzer,
	determinism.Analyzer,
	apierr.Analyzer,
}

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit machine-readable JSON (findings, fixes, suppressions)")
		fix     = flag.Bool("fix", false, "apply suggested fixes to the source tree")
		runList = flag.String("run", "", "comma-separated analyzer subset (default: all)")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	prog, err := analysis.LoadModule(".", args...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hodlint: %v\n", err)
		os.Exit(2)
	}
	res := analysis.Run(prog, selected(*runList))

	if *fix {
		written, err := analysis.ApplyFixes(prog, res.Diagnostics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hodlint: -fix: %v\n", err)
			os.Exit(2)
		}
		for _, f := range written {
			fmt.Printf("hodlint: rewrote %s\n", f)
		}
	}

	if *jsonOut {
		emitJSON(os.Stdout, prog, res)
	} else {
		for _, d := range res.Diagnostics {
			fmt.Println(d.String())
		}
		if n := len(res.Suppressed); n > 0 {
			fmt.Fprintf(os.Stderr, "hodlint: %d finding(s) suppressed by //hod:allow:\n", n)
			for _, d := range res.Suppressed {
				fmt.Fprintf(os.Stderr, "\t%s: [%s] allowed: %s\n", d.Position, d.Analyzer, d.Allow.Reason)
			}
		}
	}
	if len(res.Diagnostics) > 0 {
		fmt.Fprintf(os.Stderr, "hodlint: %d finding(s)\n", len(res.Diagnostics))
		os.Exit(1)
	}
}

// selected resolves -run into an analyzer subset.
func selected(runList string) []*analysis.Analyzer {
	if runList == "" {
		return all
	}
	want := map[string]bool{}
	for _, n := range strings.Split(runList, ",") {
		want[strings.TrimSpace(n)] = true
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		fmt.Fprintf(os.Stderr, "hodlint: -run %q matches no analyzer\n", runList)
		os.Exit(2)
	}
	return out
}

// jsonDiag is the -json wire shape of one finding.
type jsonDiag struct {
	Analyzer string   `json:"analyzer"`
	Pos      string   `json:"pos"`
	Message  string   `json:"message"`
	Fix      *jsonFix `json:"suggested_fix,omitempty"`
	Allowed  string   `json:"allowed_reason,omitempty"`
}

type jsonFix struct {
	Message string     `json:"message"`
	Edits   []jsonEdit `json:"edits"`
}

type jsonEdit struct {
	File    string `json:"file"`
	Start   int    `json:"start_offset"`
	End     int    `json:"end_offset"`
	NewText string `json:"new_text"`
}

func emitJSON(w *os.File, prog *analysis.Program, res analysis.Result) {
	fixOf := func(d analysis.Diagnostic) *jsonFix {
		if d.Fix == nil {
			return nil
		}
		jf := &jsonFix{Message: d.Fix.Message}
		for _, e := range d.Fix.Edits {
			p := prog.Fset.Position(e.Pos)
			q := prog.Fset.Position(e.End)
			jf.Edits = append(jf.Edits, jsonEdit{File: p.Filename, Start: p.Offset, End: q.Offset, NewText: e.NewText})
		}
		return jf
	}
	toJSON := func(ds []analysis.Diagnostic) []jsonDiag {
		out := make([]jsonDiag, 0, len(ds))
		for _, d := range ds {
			jd := jsonDiag{Analyzer: d.Analyzer, Pos: d.Position.String(), Message: d.Message, Fix: fixOf(d)}
			if d.Allow != nil {
				jd.Allowed = d.Allow.Reason
			}
			out = append(out, jd)
		}
		return out
	}
	payload := struct {
		Findings   []jsonDiag `json:"findings"`
		Suppressed []jsonDiag `json:"suppressed"`
	}{
		Findings:   toJSON(res.Diagnostics),
		Suppressed: toJSON(res.Suppressed),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(payload)
}
