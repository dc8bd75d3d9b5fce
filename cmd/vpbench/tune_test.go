package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vocabpipe/internal/tune"
)

// runCLI invokes the testable entry point and captures both streams.
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut strings.Builder
	rc := run(args, &out, &errOut)
	return rc, out.String(), errOut.String()
}

func TestTuneListMode(t *testing.T) {
	rc, out, _ := runCLI(t, "-tune-list")
	if rc != 0 {
		t.Fatalf("rc = %d", rc)
	}
	for _, want := range []string{"4b-quick", "vhalf-30b", "space="} {
		if !strings.Contains(out, want) {
			t.Errorf("tune-list output missing %q:\n%s", want, out)
		}
	}
}

// TestTuneListOut: -tune-list honors -out like every other mode.
func TestTuneListOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scenarios.txt")
	rc, out, errOut := runCLI(t, "-tune-list", "-out", path)
	if rc != 0 || out != "" {
		t.Fatalf("rc = %d, stdout %q (stderr %s)", rc, out, errOut)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "4b-quick") {
		t.Errorf("file missing scenarios: %s", data)
	}
	if rc, _, errOut := runCLI(t, "-tune-list", "-json"); rc != 2 || !strings.Contains(errOut, "fixed text format") {
		t.Errorf("-tune-list -json: rc %d, stderr %s", rc, errOut)
	}
}

func TestTuneNamedScenario(t *testing.T) {
	rc, out, errOut := runCLI(t, "-tune", "4b-quick", "-tune-strategy", "beam", "-v")
	if rc != 0 {
		t.Fatalf("rc = %d (stderr %s)", rc, errOut)
	}
	for _, want := range []string{"tune 4b-quick", "strategy=beam", "rank", "vocab-"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// -v printed progress lines.
	if !strings.Contains(errOut, "best") {
		t.Errorf("verbose run produced no progress lines: %s", errOut)
	}
}

func TestTuneInlineSpecJSON(t *testing.T) {
	rc, out, errOut := runCLI(t, "-tune", "model=4B;devices=8;micro=32,64;method=vocab-1,vocab-2", "-json")
	if rc != 0 {
		t.Fatalf("rc = %d (stderr %s)", rc, errOut)
	}
	var res tune.Result
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, out)
	}
	if res.Evaluated != 4 || res.Best == nil || res.Best.Devices != 8 {
		t.Errorf("result = %+v", res)
	}
}

func TestTuneFlagValidation(t *testing.T) {
	tests := []struct {
		name     string
		args     []string
		fragment string
	}{
		{"strategy without tune", []string{"-tune-strategy", "beam"}, "only applies to -tune"},
		{"tune with experiment", []string{"-tune", "4b-quick", "table5"}, "runs alone"},
		{"tune with grid", []string{"-tune", "4b-quick", "-grid", "model=4B"}, "runs alone"},
		{"tune with csv", []string{"-tune", "4b-quick", "-csv"}, "not CSV"},
		{"tune-list with args", []string{"-tune-list", "table5"}, "no other modes"},
		{"tune-list with parallel", []string{"-tune-list", "-parallel", "8"}, "no other modes"},
		{"tune-list with verbose", []string{"-tune-list", "-v"}, "no other modes"},
		{"unknown scenario", []string{"-tune", "warp9"}, "unknown tuning scenario"},
		{"bad inline spec", []string{"-tune", "model=900B"}, "unknown model"},
		{"unknown strategy", []string{"-tune", "4b-quick", "-tune-strategy", "warp"}, "unknown strategy"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rc, _, errOut := runCLI(t, tt.args...)
			if rc != 2 {
				t.Fatalf("rc = %d, want 2 (stderr %s)", rc, errOut)
			}
			if !strings.Contains(errOut, tt.fragment) {
				t.Errorf("stderr missing %q: %s", tt.fragment, errOut)
			}
		})
	}
}
