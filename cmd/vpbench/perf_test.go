package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vocabpipe/internal/report"
)

func writeBench(t *testing.T, dir, name string, cases ...report.BenchCase) string {
	t.Helper()
	path := filepath.Join(dir, name)
	r := &report.BenchReport{SchemaVersion: report.BenchSchemaVersion, GitSHA: name, Cases: cases}
	if err := report.WriteBenchFile(path, r); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPerfRunCLI runs the real suite in quick mode end to end — the exact
// command the CI perf job executes — and validates the emitted BENCH file.
func TestPerfRunCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("full perf suite in -short mode")
	}
	path := filepath.Join(t.TempDir(), "BENCH_PR.json")
	stdout, _, code := runVpbench(t, "-perf", "-out", path)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if stdout != "" {
		t.Errorf("stdout should be empty with -out, got %q", stdout)
	}
	r, err := report.ReadBenchFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !r.QuickMode {
		t.Error("default -perf run should record quick mode")
	}
	if len(r.Cases) < 7 {
		t.Errorf("suite emitted %d cases, want >= 7", len(r.Cases))
	}
	if r.Case("sweep/table5") == nil || r.Case("engine/build/21B-seq4096-V256k-vocab-1") == nil {
		t.Errorf("missing expected cases: %+v", r.Cases)
	}
}

func TestPerfCompareCLIPassAndFail(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "BENCH_0.json",
		report.BenchCase{Name: "a", N: 1, NsPerOp: 1000, AllocsPerOp: 5000})
	same := writeBench(t, dir, "BENCH_same.json",
		report.BenchCase{Name: "a", N: 1, NsPerOp: 1100, AllocsPerOp: 5100})
	slow := writeBench(t, dir, "BENCH_slow.json",
		report.BenchCase{Name: "a", N: 1, NsPerOp: 9000, AllocsPerOp: 5000})

	stdout, _, code := runVpbench(t, "-perf-compare", base, same)
	if code != 0 {
		t.Fatalf("within-tolerance compare: exit %d\n%s", code, stdout)
	}
	if !strings.Contains(stdout, "perf comparison") {
		t.Errorf("missing comparison header:\n%s", stdout)
	}

	stdout, stderr, code := runVpbench(t, "-perf-compare", base, slow)
	if code != exitPerfRegression {
		t.Fatalf("regression compare: exit %d, want %d", code, exitPerfRegression)
	}
	if !strings.Contains(stdout, "regressed") || !strings.Contains(stderr, "perf regression") {
		t.Errorf("regression not reported:\nstdout: %s\nstderr: %s", stdout, stderr)
	}

	// A generous tolerance waves the same pair through.
	_, _, code = runVpbench(t, "-perf-compare", "-perf-tolerance", "10", base, slow)
	if code != 0 {
		t.Errorf("tolerance 10 should pass a 9x slowdown, exit %d", code)
	}
}

func TestPerfCompareCLIErrors(t *testing.T) {
	dir := t.TempDir()
	base := writeBench(t, dir, "BENCH_0.json",
		report.BenchCase{Name: "a", N: 1, NsPerOp: 1000, AllocsPerOp: 10})

	if _, stderr, code := runVpbench(t, "-perf-compare", base); code != 2 ||
		!strings.Contains(stderr, "exactly two") {
		t.Errorf("one arg: code=%d stderr=%q", code, stderr)
	}
	// A usage error must not truncate an existing -out target.
	keep := filepath.Join(dir, "keep.json")
	if err := os.WriteFile(keep, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := runVpbench(t, "-perf-compare", "-out", keep, base); code != 2 {
		t.Fatalf("one arg with -out: code=%d", code)
	}
	if data, err := os.ReadFile(keep); err != nil || string(data) != "precious" {
		t.Errorf("-out target truncated on usage error: %q, %v", data, err)
	}
	// Cross-mode perf flags are rejected, not silently ignored.
	if _, stderr, code := runVpbench(t, "-perf", "-perf-tolerance", "10"); code != 2 ||
		!strings.Contains(stderr, "only apply to -perf-compare") {
		t.Errorf("-perf -perf-tolerance: code=%d stderr=%q", code, stderr)
	}
	if _, stderr, code := runVpbench(t, "-perf-compare", "-perf-time", "500ms", base, base); code != 2 ||
		!strings.Contains(stderr, "only applies to -perf") {
		t.Errorf("-perf-compare -perf-time: code=%d stderr=%q", code, stderr)
	}
	// ... and in normal sweep mode too (forgotten -perf must not silently
	// run a plain sweep).
	if _, stderr, code := runVpbench(t, "-perf-time", "500ms", "table4"); code != 2 ||
		!strings.Contains(stderr, "only applies to -perf") {
		t.Errorf("sweep-mode -perf-time: code=%d stderr=%q", code, stderr)
	}
	if _, stderr, code := runVpbench(t, "-perf-tolerance", "2", "table4"); code != 2 ||
		!strings.Contains(stderr, "only apply to -perf-compare") {
		t.Errorf("sweep-mode -perf-tolerance: code=%d stderr=%q", code, stderr)
	}
	if _, stderr, code := runVpbench(t, "-perf", "-perf-compare"); code != 2 ||
		!strings.Contains(stderr, "mutually exclusive") {
		t.Errorf("both modes: code=%d stderr=%q", code, stderr)
	}
	if _, stderr, code := runVpbench(t, "-perf", "-json"); code != 2 ||
		!strings.Contains(stderr, "fixed output format") {
		t.Errorf("-perf -json: code=%d stderr=%q", code, stderr)
	}
	// Sweep-mode inputs must be rejected, not silently ignored.
	if _, stderr, code := runVpbench(t, "-perf", "table5"); code != 2 ||
		!strings.Contains(stderr, "takes no experiment names") {
		t.Errorf("-perf table5: code=%d stderr=%q", code, stderr)
	}
	if _, stderr, code := runVpbench(t, "-perf", "-grid", "model=4B"); code != 2 ||
		!strings.Contains(stderr, "do not apply to perf modes") {
		t.Errorf("-perf -grid: code=%d stderr=%q", code, stderr)
	}
	if _, stderr, code := runVpbench(t, "-perf-compare", "-parallel", "8", base, base); code != 2 ||
		!strings.Contains(stderr, "do not apply to perf modes") {
		t.Errorf("-perf-compare -parallel: code=%d stderr=%q", code, stderr)
	}
	if _, stderr, code := runVpbench(t, "-perf-compare", base, filepath.Join(dir, "nope.json")); code != 1 ||
		!strings.Contains(stderr, "nope.json") {
		t.Errorf("missing file: code=%d stderr=%q", code, stderr)
	}

	wrongSchema := filepath.Join(dir, "BENCH_bad.json")
	if err := os.WriteFile(wrongSchema, []byte(`{"schema_version": 99, "cases": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, code := runVpbench(t, "-perf-compare", base, wrongSchema); code != 1 ||
		!strings.Contains(stderr, "schema_version") {
		t.Errorf("schema mismatch: code=%d stderr=%q", code, stderr)
	}
}
