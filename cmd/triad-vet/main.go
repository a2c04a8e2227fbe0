// Command triad-vet runs the repo's custom static analyzers — the
// determinism, zero-allocation, wire-safety, lock-discipline, and
// security-invariant checks that ordinary go vet cannot express —
// over a set of package patterns:
//
//	go run ./cmd/triad-vet ./...
//
// Analyzers (see DESIGN.md, "Static analysis"):
//
//	simdet       deterministic packages must not read wall-clock time,
//	             use global math/rand, spawn goroutines, or range over maps
//	hotpath      //triad:hotpath functions must not contain allocating
//	             constructs
//	wirekind     switches over wire enum types must be exhaustive or carry
//	             an explicit default
//	lockflow     serve/transport must not hold mutexes across channel
//	             sends or TrustedNow calls; no function-style sync/atomic
//	             anywhere
//	noncepart    sealer constructions must not provably reuse a sender
//	             identity (AEAD nonce partitioning, DESIGN §6.1)
//	durable      persisted files must follow write→fsync→rename→dir-sync
//
// Exit status is 1 if any diagnostic is reported, 2 on load failure.
// Suppress a finding with a trailing //triad:nolint:<name> <reason>
// comment on the offending line or the line above it.
//
// -json emits diagnostics as a JSON array for tooling; -nolint-audit
// checks the suppression budget instead of running analyzers: every
// //triad:nolint must name analyzers of the suite and carry a reason,
// and the total count must not exceed the baseline file (-baseline,
// default lint-baseline.txt).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"triadtime/internal/analysis"
	"triadtime/internal/analysis/durable"
	"triadtime/internal/analysis/hotpath"
	"triadtime/internal/analysis/load"
	"triadtime/internal/analysis/lockflow"
	"triadtime/internal/analysis/noncepart"
	"triadtime/internal/analysis/simdet"
	"triadtime/internal/analysis/wirekind"
)

// Suite is the full analyzer set triad-vet runs, in report order.
var Suite = []*analysis.Analyzer{
	simdet.Analyzer,
	hotpath.Analyzer,
	wirekind.Analyzer,
	lockflow.Analyzer,
	noncepart.Analyzer,
	durable.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("triad-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "change to `dir` before loading packages")
	list := fs.Bool("list", false, "print the analyzer names and docs, then exit")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	audit := fs.Bool("nolint-audit", false, "audit //triad:nolint directives instead of running analyzers")
	baseline := fs.String("baseline", "lint-baseline.txt", "suppression-count baseline `file` for -nolint-audit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: triad-vet [-C dir] [-list] [-json] [-nolint-audit [-baseline file]] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range Suite {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *audit {
		return runAudit(*dir, *baseline, stdout, stderr)
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := load.Packages(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "triad-vet: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(pkgs, Suite)
	if err != nil {
		fmt.Fprintf(stderr, "triad-vet: %v\n", err)
		return 2
	}
	if *jsonOut {
		if err := writeJSON(stdout, diags); err != nil {
			fmt.Fprintf(stderr, "triad-vet: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: %s (%s)\n", relativize(d.Pos.String()), d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "triad-vet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// jsonDiag is the machine-readable diagnostic shape; field names are
// part of the tool's interface (CI consumes them).
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
}

func writeJSON(stdout io.Writer, diags []analysis.Diagnostic) error {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     relativize(d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
			Analyzer: d.Analyzer,
		})
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "\t")
	return enc.Encode(out)
}

// runAudit walks the tree's Go sources (testdata modules excluded —
// their suppressions exercise the mechanism itself) and enforces the
// suppression budget: every directive well-formed and reasoned, and
// no more directives than the checked-in baseline allows. Exit 1 on
// violation, 2 when the tree or baseline cannot be read.
func runAudit(dir, baselinePath string, stdout, stderr io.Writer) int {
	budget, err := readBaseline(filepath.Join(dir, baselinePath))
	if err != nil {
		fmt.Fprintf(stderr, "triad-vet: %v\n", err)
		return 2
	}
	var count, bad int
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == ".git" || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		n, problems, err := auditFile(path)
		if err != nil {
			return err
		}
		count += n
		for _, p := range problems {
			bad++
			fmt.Fprintln(stdout, p)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "triad-vet: audit: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "triad-vet: %d suppression(s), baseline %d\n", count, budget)
	if bad > 0 {
		fmt.Fprintf(stderr, "triad-vet: %d malformed suppression(s)\n", bad)
		return 1
	}
	if count > budget {
		fmt.Fprintf(stderr, "triad-vet: suppression count %d exceeds baseline %d; fix the finding or raise the baseline with a review\n", count, budget)
		return 1
	}
	return 0
}

// auditFile scans one source file for //triad:nolint directives,
// returning the directive count and a description of each malformed
// one (missing names, a name that is not in Suite, or missing reason).
// Files are parsed so only real comments count — a mention of the
// marker in prose (mid-comment) or in a string literal is not a
// directive, exactly mirroring the framework's own suppression matching.
func auditFile(path string) (int, []string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return 0, nil, err
	}
	var count int
	var problems []string
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//triad:nolint")
			if !ok {
				continue
			}
			at := fmt.Sprintf("%s:%d", relativize(path), fset.Position(c.Slash).Line)
			if !strings.HasPrefix(rest, ":") {
				problems = append(problems, fmt.Sprintf("%s: //triad:nolint without analyzer names (use //triad:nolint:<names> <reason>)", at))
				continue
			}
			count++
			names, reason, _ := strings.Cut(rest[1:], " ")
			if names == "" {
				problems = append(problems, fmt.Sprintf("%s: //triad:nolint: with empty analyzer list", at))
			}
			for _, name := range strings.Split(names, ",") {
				if name != "" && !known(name) {
					problems = append(problems, fmt.Sprintf("%s: suppression names %q, which is not an analyzer of the suite (triad-vet -list)", at, name))
				}
			}
			if strings.TrimSpace(reason) == "" {
				problems = append(problems, fmt.Sprintf("%s: suppression of %q has no reason; every //triad:nolint must say why the invariant does not apply", at, names))
			}
		}
	}
	return count, problems, nil
}

// known reports whether a suppression may name an analyzer: one in
// Suite, or "all".
func known(name string) bool {
	if name == "all" {
		return true
	}
	for _, a := range Suite {
		if a.Name == name {
			return true
		}
	}
	return false
}

// readBaseline parses the budget file: the first non-blank,
// non-comment line is the allowed suppression count.
func readBaseline(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("reading baseline: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n, err := strconv.Atoi(line)
		if err != nil {
			return 0, fmt.Errorf("baseline %s: %q is not a count", path, line)
		}
		return n, nil
	}
	return 0, fmt.Errorf("baseline %s: no count found", path)
}

// relativize shortens an absolute file:line:col position to be
// relative to the current directory when possible, for readable
// clickable output.
func relativize(pos string) string {
	cwd, err := os.Getwd()
	if err != nil {
		return pos
	}
	rel, err := filepath.Rel(cwd, pos)
	if err != nil || len(rel) >= len(pos) {
		return pos
	}
	return rel
}
