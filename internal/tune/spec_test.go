package tune

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/sim"
)

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("model=4B;devices=8..32;micro=32,64..256;method=1f1b;mem=64;objective=tokens;beam=2;budget=10;seed=7;vocab=256k;seq=4096")
	if err != nil {
		t.Fatal(err)
	}
	if s.Base.Name != "4B" || s.Base.Vocab != 256*1024 || s.Base.Seq != 4096 {
		t.Errorf("base = %+v", s.Base)
	}
	if want := []int{8, 16, 32}; !reflect.DeepEqual(s.Devices, want) {
		t.Errorf("devices = %v, want %v", s.Devices, want)
	}
	if want := []int{32, 64, 128, 256}; !reflect.DeepEqual(s.Micros, want) {
		t.Errorf("micros = %v, want %v", s.Micros, want)
	}
	if !reflect.DeepEqual(s.Methods, sim.OneF1BMethods) {
		t.Errorf("methods = %v", s.Methods)
	}
	if s.MemBudgetBytes != 64*costmodel.GiB || s.Objective != ObjectiveTokens {
		t.Errorf("mem=%v objective=%v", s.MemBudgetBytes, s.Objective)
	}
	if s.BeamWidth != 2 || s.Budget != 10 || s.Seed != 7 {
		t.Errorf("knobs = %d/%d/%d", s.BeamWidth, s.Budget, s.Seed)
	}
}

// TestParseSpecOrderIndependent pins that seq/vocab overrides apply whether
// they appear before or after model=.
func TestParseSpecOrderIndependent(t *testing.T) {
	a, err := ParseSpec("seq=4096;model=4B")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec("model=4B;seq=4096")
	if err != nil {
		t.Fatal(err)
	}
	if a.Base.Seq != 4096 || b.Base.Seq != 4096 {
		t.Errorf("seq override lost: %d vs %d", a.Base.Seq, b.Base.Seq)
	}
}

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec("model=10B")
	if err != nil {
		t.Fatal(err)
	}
	if s.Base.Name != "10B" {
		t.Fatalf("base = %+v", s.Base)
	}
	// Defaults materialize at search time, not parse time.
	d := s.withDefaults()
	if !reflect.DeepEqual(d.Devices, []int{16}) || !reflect.DeepEqual(d.Micros, []int{128}) {
		t.Errorf("defaulted axes = %v / %v", d.Devices, d.Micros)
	}
	if d.Objective != ObjectiveMFU || d.BeamWidth != 4 || d.Budget != 48 || d.Seed != 1 {
		t.Errorf("defaulted knobs = %+v", d)
	}
}

func TestParseSpecErrors(t *testing.T) {
	tests := []struct {
		name, spec, fragment string
	}{
		{"empty", "", "needs model"},
		{"no model", "devices=8", "needs model"},
		{"unknown model", "model=900B", "unknown model"},
		{"not key=value", "model4B", "not key=value"},
		{"duplicate key", "model=4B;model=10B", "duplicate"},
		{"unknown key", "model=4B;flux=1", "unknown spec key"},
		{"empty value", "model=4B;devices=", "empty value"},
		{"bad range", "model=4B;devices=8..4", "bad range"},
		{"zero range", "model=4B;devices=0..8", "bad range"},
		{"bad int", "model=4B;micro=four", "positive integer"},
		{"k vocab wrapping to 1024", "model=4B;vocab=18014398509481985k", "overflows"},
		{"k vocab wrapping negative", "model=4B;vocab=9007199254740993k", "overflows"},
		{"multi seq", "model=4B;seq=2048,4096", "single value"},
		{"bad mem", "model=4B;mem=-3", "bad mem"},
		{"nan mem", "model=4B;mem=nan", "bad mem"},
		{"inf mem", "model=4B;mem=+Inf", "bad mem"},
		{"bad objective", "model=4B;objective=latency", "unknown objective"},
		{"bad seed", "model=4B;seed=0", "bad seed"},
		{"oversized devices", "model=4B;devices=2048", "out of range"},
		{"oversized space", "model=4B;devices=1..1024;method=all;micro=" + manyMicros(100), "limit"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ParseSpec(tt.spec)
			if err == nil || !strings.Contains(err.Error(), tt.fragment) {
				t.Errorf("ParseSpec(%q) = %v, want error containing %q", tt.spec, err, tt.fragment)
			}
		})
	}
}

// manyMicros builds a 1,2,...,n comma list, enough to overflow MaxSpace.
func manyMicros(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", i)
	}
	return b.String()
}

func TestParseRangeListDedupSort(t *testing.T) {
	got, err := parseRangeList("64, 8..32, 16")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{8, 16, 32, 64}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseRangeList = %v, want %v", got, want)
	}
}

// TestParseRangeListHugeBoundsTerminate: doubling from a value past half of
// MaxInt must stop, not wrap to 0 and spin forever (the parse runs inside
// the HTTP handler, so non-termination is a one-request DoS). Validate still
// rejects the absurd values afterwards.
func TestParseRangeListHugeBoundsTerminate(t *testing.T) {
	huge := fmt.Sprintf("%d..%d", 1<<62, 1<<62)
	got, err := parseRangeList(huge)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1 << 62}; !reflect.DeepEqual(got, want) {
		t.Errorf("parseRangeList(%s) = %v, want %v", huge, got, want)
	}
	// A full-width range also terminates with a bounded doubling sequence.
	if got, err = parseRangeList("1..9223372036854775807"); err != nil || len(got) != 63 {
		t.Errorf("full-width range: %d values, err %v", len(got), err)
	}
}
