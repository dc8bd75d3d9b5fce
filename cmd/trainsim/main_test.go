package main

import (
	"strings"
	"testing"
)

// TestRun drives the command through its flags: each bad value is refused
// with a one-line message and exit 2, before any training runs.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string // in stdout when code is 0, in stderr otherwise
	}{
		{"train", []string{"-steps", "2"}, 0, "max divergence: "},
		{"zero devices", []string{"-devices", "0"}, 2, "-devices must be positive, got 0"},
		{"vocab not divisible", []string{"-vocab", "65", "-devices", "4"}, 2, "-vocab must be a positive multiple of -devices (4), got 65"},
		{"zero vocab", []string{"-vocab", "0"}, 2, "-vocab must be a positive multiple"},
		{"negative steps", []string{"-steps", "-1"}, 2, "-steps must be positive, got -1"},
		{"odd hidden", []string{"-hidden", "15"}, 2, "-hidden must be a positive multiple of the head count (2), got 15"},
		{"negative layers", []string{"-layers", "-1"}, 2, "-layers must not be negative, got -1"},
		{"unknown algorithm", []string{"-alg", "vocab-3"}, 2, `unknown algorithm "vocab-3"`},
		{"extra arguments", []string{"fig17"}, 2, "unexpected arguments"},
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
}
