package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vocabpipe/internal/experiments"
	"vocabpipe/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite golden files")

func runVpbench(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

// TestGolden pins every experiment's output byte for byte: the table5
// records, and the full suite as text and as JSON records. Each output must
// also be identical across worker counts, the property that lets
// `-parallel 8 all` reproduce the serial paper tables exactly. Regenerate
// with `go test ./cmd/vpbench -run Golden -update`.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		file string
		args []string
	}{
		{"table5.golden.json", []string{"-json", "table5"}},
		{"all.golden.txt", []string{"all"}},
		{"all.golden.json", []string{"-json", "all"}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			serial, _, code := runVpbench(t, append([]string{"-parallel", "1"}, tc.args...)...)
			if code != 0 {
				t.Fatalf("exit %d", code)
			}
			parallel, _, code := runVpbench(t, append([]string{"-parallel", "7"}, tc.args...)...)
			if code != 0 {
				t.Fatalf("exit %d", code)
			}
			if serial != parallel {
				t.Fatalf("%v output differs between -parallel 1 and -parallel 7", tc.args)
			}
			golden := filepath.Join("testdata", tc.file)
			if *update {
				if err := os.WriteFile(golden, []byte(serial), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if serial != string(want) {
				t.Fatalf("%v output deviates from %s (rerun with -update if the change is intended)", tc.args, golden)
			}
		})
	}
}

func TestCLIErrors(t *testing.T) {
	if _, stderr, code := runVpbench(t, "nope"); code != 2 || !strings.Contains(stderr, "unknown experiment") {
		t.Errorf("unknown experiment: code=%d stderr=%q", code, stderr)
	}
	if _, stderr, code := runVpbench(t, "-json", "-csv", "table4"); code != 2 || !strings.Contains(stderr, "mutually exclusive") {
		t.Errorf("-json -csv: code=%d stderr=%q", code, stderr)
	}
	if _, stderr, code := runVpbench(t, "-grid", "model=unknown"); code != 2 || !strings.Contains(stderr, "unknown model") {
		t.Errorf("bad grid: code=%d stderr=%q", code, stderr)
	}
	// A negative worker count is refused on both paths; zero keeps its
	// GOMAXPROCS meaning.
	for _, args := range [][]string{
		{"-parallel", "-3", "table4"},
		{"-parallel", "-1", "-grid", "model=4B;method=baseline;vocab=32k;micro=16"},
		{"-parallel", "-3", "-tune", "4b-quick"},
	} {
		if _, stderr, code := runVpbench(t, args...); code != 2 || !strings.Contains(stderr, "-parallel must not be negative") {
			t.Errorf("%v: code=%d stderr=%q", args, code, stderr)
		}
	}
	if _, stderr, code := runVpbench(t, "-parallel", "0", "table4"); code != 0 {
		t.Errorf("-parallel 0: code=%d stderr=%q", code, stderr)
	}
}

// TestFailedCellsExitNonzero proves per-cell failures still fail the
// process for scripted use, while the report itself carries the error rows.
func TestFailedCellsExitNonzero(t *testing.T) {
	stdout, _, code := runVpbench(t, "-grid", "model=4B;devices=7;method=baseline") // 32 % 7 != 0
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stdout, "not divisible") {
		t.Errorf("error row missing from report:\n%s", stdout)
	}
}

// TestClosedFormJSONNote proves machine-readable mode warns (on stderr) when
// a selected experiment has no records.
func TestClosedFormJSONNote(t *testing.T) {
	stdout, stderr, code := runVpbench(t, "-json", "fig2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if got := strings.TrimSpace(stdout); got != "[]" {
		t.Errorf("stdout = %q, want []", got)
	}
	if !strings.Contains(stderr, "fig2 is closed-form") {
		t.Errorf("missing note on stderr: %q", stderr)
	}
}

// TestCustomGridCLI runs a small user-defined sweep end to end in both text
// and CSV modes.
func TestCustomGridCLI(t *testing.T) {
	spec := "model=4B;method=baseline,vocab-1;vocab=32k;micro=16"
	stdout, _, code := runVpbench(t, "-grid", spec)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(stdout, "Custom sweep — 2 cells") || !strings.Contains(stdout, "4B/seq2048/V32k/vocab-1") {
		t.Errorf("custom grid text output:\n%s", stdout)
	}
	stdout, _, code = runVpbench(t, "-csv", "-grid", spec)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "experiment,label") {
		t.Errorf("custom grid CSV output:\n%s", stdout)
	}
}

// TestVerboseProgress checks -v streams one progress line per cell to
// stderr without touching stdout.
func TestVerboseProgress(t *testing.T) {
	stdout, stderr, code := runVpbench(t, "-v", "-grid", "model=4B;method=baseline;vocab=32k;micro=16")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(stderr, "[1/1] custom 4B/seq2048/V32k/baseline") {
		t.Errorf("progress missing from stderr: %q", stderr)
	}
	if strings.Contains(stdout, "[1/1]") {
		t.Errorf("progress leaked to stdout")
	}
}

// TestOutFile checks -out writes the report to a file.
func TestOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	stdout, _, code := runVpbench(t, "-json", "-out", path, "-grid", "model=4B;method=baseline;vocab=32k;micro=16")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if stdout != "" {
		t.Errorf("stdout should be empty with -out, got %q", stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"experiment\": \"custom\"") {
		t.Errorf("file content: %s", data)
	}
}

// TestFidelityMode: -fidelity prints one report line per paper table, the
// line TestFidelityRatchet logs for that table's sweep, and refuses every
// other mode beside it.
func TestFidelityMode(t *testing.T) {
	if testing.Short() {
		t.Skip("table5 and table6 grids in -short mode")
	}
	stdout, stderr, code := runVpbench(t, "-fidelity")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	want := "table5: " + experiments.Table5Fidelity(sweep.Run(experiments.Table5Grid(), sweep.Options{})).String() + "\n" +
		"table6: " + experiments.Table6Fidelity(sweep.Run(experiments.Table6Grid(), sweep.Options{})).String() + "\n"
	if stdout != want {
		t.Errorf("-fidelity printed\n%s\nwant\n%s", stdout, want)
	}
	if !strings.HasPrefix(stdout, "table5: 114 cells, ") || !strings.Contains(stdout, "\ntable6: 46 cells, ") {
		t.Errorf("-fidelity printed\n%s\nwant the 114 Table 5 and 46 Table 6 cells scored", stdout)
	}
	for _, args := range [][]string{{"-fidelity", "table5"}, {"-fidelity", "-grid", "model=4B"}, {"-fidelity", "-tune", "4b-quick"},
		{"-fidelity", "-tune-list"}, {"-fidelity", "-v"}, {"-fidelity", "-json"}, {"-fidelity", "-csv"}} {
		if _, stderr, code := runVpbench(t, args...); code != 2 || !strings.Contains(stderr, "-fidelity") {
			t.Errorf("%v: code=%d stderr=%q", args, code, stderr)
		}
	}
}
