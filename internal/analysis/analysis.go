// Package analysis is roglint's engine: a multi-pass static analyzer for
// the repo's Policy×Runtime core, built purely on go/parser, go/ast and
// go/types (no external tooling — the tree must stay checkable offline).
//
// The paper's correctness claims rest on cross-package invariants the
// compiler cannot see: the socket runtime's lock discipline around the
// shared engine.State, virtual-time determinism in the simulated runtime,
// fixed-width wire framing, and never-dropped transport errors. Each pass
// encodes one such invariant and reports findings with file:line
// positions; the driver deduplicates and sorts them for stable output and
// honors //roglint:ignore suppressions (which must carry a reason, and are
// themselves flagged when they match nothing).
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding: where, which pass, and what.
type Diagnostic struct {
	Pos  token.Position
	Pass string
	Msg  string
}

// String formats the finding as file:line:col: [pass] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Pass, d.Msg)
}

// Pass is one invariant checker. Run inspects a single type-checked
// package and returns its findings; the driver owns filtering and output
// order.
type Pass interface {
	Name() string
	Doc() string
	Run(pkg *Package) []Diagnostic
}

// Finisher is implemented by passes whose findings need the whole
// program: Run accumulates per-package facts, and Finish — called once
// after every package has been seen — reports the cross-package
// findings. Such passes are stateful; callers must use a fresh instance
// per Analyze invocation (DefaultPasses and SelectPasses construct new
// ones each call).
type Finisher interface {
	Finish() []Diagnostic
}

// DefaultPasses returns every pass in the suite, in stable order.
func DefaultPasses() []Pass {
	return []Pass{
		NewLockguard(),
		NewWallclock(),
		NewMaporder(),
		NewWireframe(),
		NewErrdrop(),
		NewLockorder(),
	}
}

// SelectPasses resolves a comma-separated pass list ("" means all) to
// fresh pass instances in suite order, rejecting unknown names.
func SelectPasses(spec string) ([]Pass, error) {
	all := DefaultPasses()
	if spec == "" {
		return all, nil
	}
	byName := map[string]Pass{}
	for _, p := range all {
		byName[p.Name()] = p
	}
	want := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if byName[name] == nil {
			return nil, fmt.Errorf("unknown pass %q (run -list for the suite)", name)
		}
		want[name] = true
	}
	var out []Pass
	for _, p := range all {
		if want[p.Name()] {
			out = append(out, p)
		}
	}
	return out, nil
}

// suppressPass names the pseudo-pass that reports problems with the
// suppression comments themselves (missing reason, matching nothing).
const suppressPass = "suppress"

// ignoreDirective introduces a suppression comment:
//
//	//roglint:ignore <pass> <reason>
//
// It silences diagnostics of the named pass on the comment's line or the
// line directly below it (so it can trail the offending statement or sit
// on its own line above).
const ignoreDirective = "roglint:ignore"

// suppression is one parsed //roglint:ignore comment.
type suppression struct {
	pos    token.Position
	pass   string
	reason string
	used   bool
}

// PassTiming is one pass's cumulative wall time across every package
// (plus its Finish, for cross-package passes).
type PassTiming struct {
	Pass    string
	Seconds float64
}

// Analyze runs the passes over every package, applies suppressions, and
// returns the surviving findings deduplicated and sorted by position.
func Analyze(pkgs []*Package, passes []Pass) []Diagnostic {
	diags, _ := AnalyzeTimed(pkgs, passes)
	return diags
}

// AnalyzeTimed is Analyze plus per-pass timing, in pass order.
func AnalyzeTimed(pkgs []*Package, passes []Pass) ([]Diagnostic, []PassTiming) {
	var diags []Diagnostic
	var sups []*suppression
	active := map[string]bool{}
	elapsed := make([]time.Duration, len(passes))
	for _, p := range passes {
		active[p.Name()] = true
	}
	for _, pkg := range pkgs {
		for i, p := range passes {
			start := time.Now()
			diags = append(diags, p.Run(pkg)...)
			elapsed[i] += time.Since(start)
		}
		s, malformed := parseSuppressions(pkg)
		sups = append(sups, s...)
		diags = append(diags, malformed...)
	}
	for i, p := range passes {
		fin, ok := p.(Finisher)
		if !ok {
			continue
		}
		start := time.Now()
		diags = append(diags, fin.Finish()...)
		elapsed[i] += time.Since(start)
	}
	timings := make([]PassTiming, len(passes))
	for i, p := range passes {
		timings[i] = PassTiming{Pass: p.Name(), Seconds: elapsed[i].Seconds()}
	}

	// A suppression silences same-pass findings on its own line or the
	// next line.
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, s := range sups {
			if s.pass == d.Pass && s.pos.Filename == d.Pos.Filename &&
				(s.pos.Line == d.Pos.Line || s.pos.Line == d.Pos.Line-1) {
				s.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	diags = kept

	// A suppression for a pass that ran but silenced nothing is dead
	// weight — likely left behind by a fix — and gets flagged itself.
	for _, s := range sups {
		if !s.used && active[s.pass] {
			diags = append(diags, Diagnostic{
				Pos:  s.pos,
				Pass: suppressPass,
				Msg:  fmt.Sprintf("//roglint:ignore %s matched no diagnostic; remove it", s.pass),
			})
		}
	}

	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Msg < b.Msg
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out, timings
}

// jsonFinding is the -json wire shape for one finding.
type jsonFinding struct {
	Pass string `json:"pass"`
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"msg"`
}

// EncodeJSON renders findings as a JSON array of
// {pass, file, line, col, msg}, one element per finding, in the
// driver's sorted order — the machine-readable surface CI diffs.
func EncodeJSON(diags []Diagnostic) ([]byte, error) {
	out := make([]jsonFinding, len(diags))
	for i, d := range diags {
		out[i] = jsonFinding{
			Pass: d.Pass,
			File: d.Pos.Filename,
			Line: d.Pos.Line,
			Col:  d.Pos.Column,
			Msg:  d.Msg,
		}
	}
	return json.MarshalIndent(out, "", "  ")
}

// parseSuppressions scans a package's comments for //roglint:ignore
// directives. Directives without a pass name or a reason are reported as
// findings rather than honored.
func parseSuppressions(pkg *Package) ([]*suppression, []Diagnostic) {
	var sups []*suppression
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, ignoreDirective)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{
						Pos:  pos,
						Pass: suppressPass,
						Msg:  "//roglint:ignore needs a pass name and a reason: //roglint:ignore <pass> <why>",
					})
					continue
				}
				sups = append(sups, &suppression{
					pos:    pos,
					pass:   fields[0],
					reason: strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return sups, diags
}

// pathMatches reports whether pkgPath is exactly suffix or ends with
// "/"+suffix — how passes scope themselves to packages like
// "internal/engine" regardless of the module prefix (fixture trees have
// none).
func pathMatches(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// wantRe matches expected-diagnostic comments in fixture packages:
// // want "regexp"
var wantRe = regexp.MustCompile(`want "((?:[^"\\]|\\.)*)"`)

// fileComments returns the comment groups of f in source order — a helper
// shared by directive parsing and the fixture harness.
func fileComments(f *ast.File) []*ast.Comment {
	var out []*ast.Comment
	for _, cg := range f.Comments {
		out = append(out, cg.List...)
	}
	return out
}
