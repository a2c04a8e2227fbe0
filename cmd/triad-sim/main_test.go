package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunUnknownFigure(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "99"}, &b, io.Discard); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestRunFig2WritesSummaryAndCSVs(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-fig", "2", "-dur", "2m", "-out", dir, "-seed", "7"}, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Fig2") || !strings.Contains(out, "F_calib=") {
		t.Errorf("summary missing:\n%s", out)
	}
	for _, name := range []string{"fig2_drift.csv", "fig2_ta_refs.csv", "fig2_aex.csv", "fig2_states.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(strings.Split(string(data), "\n")) < 3 {
			t.Errorf("%s suspiciously short", name)
		}
	}
}

func TestRunFig1aCDF(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	if err := run([]string{"-fig", "1a", "-dur", "5m", "-out", dir}, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig1a_cdf.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "gap_seconds,cdf") {
		t.Error("CDF CSV header missing")
	}
}

func TestRunINC(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "inc"}, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "632182") && !strings.Contains(b.String(), "63218") {
		t.Errorf("INC summary off:\n%s", b.String())
	}
}

func TestRunExtension(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "ext", "-dur", "3m"}, &b, io.Discard); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "original") || !strings.Contains(out, "hardened") {
		t.Errorf("extension table malformed:\n%s", out)
	}
	if !strings.Contains(out, "INFECTED") || !strings.Contains(out, "SAFE") {
		t.Errorf("extension verdicts missing:\n%s", out)
	}
}

func TestRunSelfCheck(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "check", "-seed", "3"}, &b, io.Discard); err != nil {
		t.Fatalf("self-check failed:\n%s\n%v", b.String(), err)
	}
	if !strings.Contains(b.String(), "reproduction checks passed") {
		t.Errorf("output:\n%s", b.String())
	}
}

func TestReproductionChecksAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, seed := range []string{"11", "23"} {
		var b strings.Builder
		if err := run([]string{"-fig", "check", "-seed", seed}, &b, io.Discard); err != nil {
			t.Errorf("seed %s: %v\n%s", seed, err, b.String())
		}
	}
}

func TestRunAllFigureRunnersSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("covers every runner at reduced durations")
	}
	// Every table id, the audit included, at -dur 2m unless listed
	// here; ids whose table duration is zero ignore -dur and run at
	// their fixed, already short size.
	dur := map[string]string{"scale1k": "10s"} // 1000 nodes: 6 s at 2m
	for _, f := range append(figures, audit) {
		d := "2m"
		if v, ok := dur[f.id]; ok {
			d = v
		}
		args := []string{"-fig", f.id, "-dur", d}
		var b strings.Builder
		if err := run(args, &b, io.Discard); err != nil {
			t.Errorf("%v: %v\n%s", args, err, b.String())
		}
		if b.Len() == 0 {
			t.Errorf("%v produced no output", args)
		}
	}
}

// readDir returns every file's contents keyed by name.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestQuorumFigureSeedStable is the quorum suite's golden-trace gate
// at the CLI layer: two runs at the same seed must produce
// byte-identical console output and CSV artifacts (availability rows
// and both attack drift series).
func TestQuorumFigureSeedStable(t *testing.T) {
	runQuorum := func() (string, map[string]string) {
		dir := t.TempDir()
		var b strings.Builder
		if err := run([]string{"-fig", "quorum", "-dur", "3m", "-seed", "10", "-out", dir}, &b, io.Discard); err != nil {
			t.Fatalf("%v\n%s", err, b.String())
		}
		return strings.ReplaceAll(b.String(), dir, "OUT"), readDir(t, dir)
	}
	text1, files1 := runQuorum()
	text2, files2 := runQuorum()
	if text1 != text2 {
		t.Errorf("quorum figure output differs across same-seed runs:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
	if !strings.Contains(text1, "quorum-3ta-lying-fixed") {
		t.Errorf("quorum rows missing:\n%s", text1)
	}
	for _, name := range []string{"quorum_rows.csv", "quorum_attack_baseline_drift.csv", "quorum_attack_quorum_drift.csv"} {
		if files1[name] == "" {
			t.Errorf("artifact %s missing or empty", name)
		}
		if files1[name] != files2[name] {
			t.Errorf("artifact %s differs across same-seed runs", name)
		}
	}
}

// TestParallelMatchesSerial is the determinism contract of the
// parallel runner: the same figures at the same seed must produce
// byte-identical console output, CSV artifacts, and JSONL traces
// whether they run serially or fanned across workers.
func TestParallelMatchesSerial(t *testing.T) {
	runFigs := func(parallel string) (string, map[string]string) {
		dir := t.TempDir()
		var b strings.Builder
		args := []string{"-fig", "all", "-dur", "2m", "-seed", "5", "-out", dir, "-parallel", parallel}
		if err := run(args, &b, io.Discard); err != nil {
			t.Fatalf("-parallel %s: %v\n%s", parallel, err, b.String())
		}
		files := readDir(t, dir)
		// The out dir path differs between runs; normalize it away so
		// the "wrote ..." lines compare equal.
		return strings.ReplaceAll(b.String(), dir, "OUT"), files
	}
	serialText, serialFiles := runFigs("1")
	parallelText, parallelFiles := runFigs("4")
	if serialText != parallelText {
		t.Errorf("console output differs between -parallel 1 and -parallel 4:\n--- serial ---\n%s\n--- parallel ---\n%s", serialText, parallelText)
	}
	if len(serialFiles) == 0 {
		t.Fatal("serial run wrote no artifacts")
	}
	for name, want := range serialFiles {
		if got, ok := parallelFiles[name]; !ok {
			t.Errorf("parallel run missing artifact %s", name)
		} else if got != want {
			t.Errorf("artifact %s differs between serial and parallel runs", name)
		}
	}
	for name := range parallelFiles {
		if _, ok := serialFiles[name]; !ok {
			t.Errorf("parallel run wrote extra artifact %s", name)
		}
	}
}

// TestTraceFileParallel checks the fig6 JSONL trace survives the
// buffered artifact path byte-for-byte across worker counts.
func TestTraceFileParallel(t *testing.T) {
	runTraced := func(parallel string) string {
		tf := filepath.Join(t.TempDir(), "trace.jsonl")
		var b strings.Builder
		if err := run([]string{"-fig", "6", "-dur", "2m", "-seed", "9", "-trace", tf, "-parallel", parallel}, &b, io.Discard); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(tf)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatal("empty trace")
		}
		return string(data)
	}
	if runTraced("1") != runTraced("4") {
		t.Error("fig6 trace differs across worker counts")
	}
}

// TestCacheReplay checks the -cache path: a second run replays
// identical output and artifacts without recomputation, and a seed
// change misses the cache.
func TestCacheReplay(t *testing.T) {
	cacheDir := t.TempDir()
	dir := t.TempDir() // shared: the out dir is part of the cache key
	runCached := func(seed string) (string, string, map[string]string) {
		var b, e strings.Builder
		args := []string{"-fig", "2", "-dur", "2m", "-seed", seed, "-out", dir, "-cache", cacheDir}
		if err := run(args, &b, &e); err != nil {
			t.Fatal(err)
		}
		return strings.ReplaceAll(b.String(), dir, "OUT"), e.String(), readDir(t, dir)
	}
	coldText, coldSummary, coldFiles := runCached("7")
	if !strings.Contains(coldSummary, "runner: 1 runs") {
		t.Errorf("cold summary missing: %q", coldSummary)
	}
	if strings.Contains(coldSummary, "cached") {
		t.Errorf("cold run reported cache hits: %q", coldSummary)
	}
	warmText, warmSummary, warmFiles := runCached("7")
	if !strings.Contains(warmSummary, "(1 cached)") {
		t.Errorf("warm run did not hit the cache: %q", warmSummary)
	}
	if warmText != coldText {
		t.Errorf("cached replay text differs:\n--- cold ---\n%s\n--- warm ---\n%s", coldText, warmText)
	}
	for name, want := range coldFiles {
		if warmFiles[name] != want {
			t.Errorf("cached artifact %s differs", name)
		}
	}
	_, otherSummary, _ := runCached("8")
	if strings.Contains(otherSummary, "cached") {
		t.Errorf("different seed hit the cache: %q", otherSummary)
	}
}
