package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"triadtime/internal/analysis"
	"triadtime/internal/analysis/load"
)

// TestRepoIsClean runs the full analyzer suite over the repository and
// requires zero findings: every real violation is either fixed or
// carries an explicit //triad:nolint suppression with a reason. This
// is the same gate `make lint` and CI enforce.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repo; skipped in -short")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load.Packages(root, "./...")
	if err != nil {
		t.Fatalf("loading repo packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded zero packages")
	}
	diags, err := analysis.Run(pkgs, Suite)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
	}
}

// TestWriteJSON pins the machine-readable diagnostic shape: the field
// names are the tool's interface — the CI problem matcher and any
// editor integration parse them.
func TestWriteJSON(t *testing.T) {
	diags := []analysis.Diagnostic{
		{
			Analyzer: "durable",
			Pos:      token.Position{Filename: "/abs/elsewhere/vault.go", Line: 42, Column: 7},
			Message:  "rename without a preceding fsync",
		},
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not a JSON array: %v\n%s", err, buf.String())
	}
	if len(got) != 1 {
		t.Fatalf("got %d diags, want 1", len(got))
	}
	for _, key := range []string{"file", "line", "col", "message", "analyzer"} {
		if _, ok := got[0][key]; !ok {
			t.Errorf("missing field %q in %v", key, got[0])
		}
	}
	if got[0]["line"] != float64(42) || got[0]["analyzer"] != "durable" {
		t.Errorf("bad values: %v", got[0])
	}

	// An empty diagnostic list must still encode as [], not null —
	// consumers index into the array unconditionally.
	buf.Reset()
	if err := writeJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if s := bytes.TrimSpace(buf.Bytes()); string(s) != "[]" {
		t.Errorf("empty diags encode as %q, want []", s)
	}
}

// auditTree writes a throwaway module and returns its path.
func auditTree(t *testing.T, baseline string, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	if baseline != "" {
		if err := os.WriteFile(filepath.Join(dir, "lint-baseline.txt"), []byte(baseline), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestAuditCleanTree(t *testing.T) {
	dir := auditTree(t, "# budget\n2\n", map[string]string{
		"a.go": "package a\n\nvar x = 1 //triad:nolint:simdet justified reason here\n",
		"b.go": "package a\n\n//triad:nolint:hotpath,durable two analyzers, one reason\nvar y = 2\n",
		// Prose mentions and testdata directives must not count.
		"c.go":            "package a\n\n// Docs may mention //triad:nolint without being a directive.\nvar z = 3\n",
		"testdata/t.go":   "package t\n\nvar q = 4 //triad:nolint:simdet testdata is exempt\n",
		"testdata/go.mod": "module t\n",
	})
	var out, errOut bytes.Buffer
	if code := runAudit(dir, "lint-baseline.txt", &out, &errOut); code != 0 {
		t.Fatalf("runAudit = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if want := "triad-vet: 2 suppression(s), baseline 2\n"; out.String() != want {
		t.Errorf("stdout = %q, want %q", out.String(), want)
	}
}

func TestAuditRejectsUnreasonedAndOverBudget(t *testing.T) {
	// A directive with no reason is malformed regardless of budget.
	dir := auditTree(t, "5\n", map[string]string{
		"a.go": "package a\n\nvar x = 1 //triad:nolint:simdet\n",
	})
	var out, errOut bytes.Buffer
	if code := runAudit(dir, "lint-baseline.txt", &out, &errOut); code != 1 {
		t.Errorf("unreasoned directive: runAudit = %d, want 1", code)
	}

	// A well-formed tree over the baseline count fails too.
	dir = auditTree(t, "0\n", map[string]string{
		"a.go": "package a\n\nvar x = 1 //triad:nolint:simdet fine reason\n",
	})
	out.Reset()
	errOut.Reset()
	if code := runAudit(dir, "lint-baseline.txt", &out, &errOut); code != 1 {
		t.Errorf("over budget: runAudit = %d, want 1", code)
	}

	// Missing names (bare marker at comment start) is malformed.
	dir = auditTree(t, "5\n", map[string]string{
		"a.go": "package a\n\nvar x = 1 //triad:nolint because reasons\n",
	})
	out.Reset()
	errOut.Reset()
	if code := runAudit(dir, "lint-baseline.txt", &out, &errOut); code != 1 {
		t.Errorf("nameless directive: runAudit = %d, want 1", code)
	}

	// A name that is not an analyzer of the suite (a typo, or one since
	// deleted) suppresses nothing and is malformed, alone or in a list.
	for _, names := range []string{"nosuch", "hotpath,nosuch"} {
		dir = auditTree(t, "5\n", map[string]string{
			"a.go": "package a\n\nvar x = 1 //triad:nolint:" + names + " a reason\n",
		})
		out.Reset()
		errOut.Reset()
		if code := runAudit(dir, "lint-baseline.txt", &out, &errOut); code != 1 {
			t.Errorf("unknown analyzer in %q: runAudit = %d, want 1", names, code)
		}
		if !strings.Contains(out.String(), `"nosuch"`) {
			t.Errorf("unknown analyzer in %q: stdout %q does not name it", names, out.String())
		}
	}
}

func TestReadBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b.txt")
	if err := os.WriteFile(path, []byte("# comment\n\n  7  \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := readBaseline(path)
	if err != nil || n != 7 {
		t.Errorf("readBaseline = %d, %v; want 7, nil", n, err)
	}
	if _, err := readBaseline(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing baseline: want error")
	}
	if err := os.WriteFile(path, []byte("# only comments\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBaseline(path); err == nil {
		t.Error("countless baseline: want error")
	}
}
