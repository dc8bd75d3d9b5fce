package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vocabpipe/internal/trace"
)

// TestRun drives the command through its flags: each bad value is refused
// with a one-line message and exit 2, before any simulation runs.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	cell := []string{"-model", "4B", "-method", "vocab-2", "-vocab", "32768", "-micro", "16"}
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // in stdout when code is 0, in stderr otherwise
	}{
		{"cell", cell, 0, "vocab-2 on 4B"},
		{"trace", append(cell, "-trace", tracePath), 0, "wrote Chrome trace to " + tracePath},
		{"unwritable trace", append(cell, "-trace", filepath.Join(dir, "missing", "trace.json")), 1, "no such file or directory"},
		{"zero seq", []string{"-seq", "0"}, 2, "-seq must be positive, got 0"},
		{"zero vocab", []string{"-vocab", "0"}, 2, "-vocab must be positive, got 0"},
		{"negative micro", []string{"-micro", "-3"}, 2, "-micro must be positive, or 0 for the paper's 128, got -3"},
		{"unknown model", []string{"-model", "5B"}, 2, `unknown model "5B"`},
		{"unknown method", []string{"-method", "vocab-3"}, 2, `unknown method "vocab-3"`},
		{"extra arguments", []string{"table5"}, 2, "unexpected arguments"},
		{"unknown flag", []string{"-nope"}, 2, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			code := run(tc.args, &stdout, &stderr)
			got := stdout.String()
			if tc.code != 0 {
				got = stderr.String()
			}
			if tc.code == 2 && stdout.Len() > 0 {
				t.Errorf("stdout not empty on a usage error: %q", stdout.String())
			}
			if code != tc.code || !strings.Contains(got, tc.want) {
				t.Fatalf("exit %d, want %d; output %q, want it to contain %q", code, tc.code, got, tc.want)
			}
		})
	}
	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if events, err := trace.ReadChromeTrace(f); err != nil || len(events) == 0 {
		t.Errorf("trace file: %d events, %v", len(events), err)
	}
}
