package load

import (
	"testing"
)

func TestParseThreshold(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want Threshold
	}{
		{"p99<50ms", Threshold{Metric: "p99", Op: "<", Value: 50}},
		{"p99<1s", Threshold{Metric: "p99", Op: "<", Value: 1000}},
		{"p50 <= 10", Threshold{Metric: "p50", Op: "<=", Value: 10}},
		{"error_rate<0.1%", Threshold{Metric: "error_rate", Op: "<", Value: 0.1}},
		{"dropped_rate<1", Threshold{Metric: "dropped_rate", Op: "<", Value: 1}},
		{"ok_rps>=100", Threshold{Metric: "ok_rps", Op: ">=", Value: 100}},
		{"shed_rate>5%", Threshold{Metric: "shed_rate", Op: ">", Value: 5}},
	} {
		got, err := ParseThreshold(tc.spec)
		if err != nil {
			t.Errorf("ParseThreshold(%q): %v", tc.spec, err)
			continue
		}
		if got.Metric != tc.want.Metric || got.Op != tc.want.Op || got.Value != tc.want.Value {
			t.Errorf("ParseThreshold(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
		if got.Spec != tc.spec {
			t.Errorf("ParseThreshold(%q) lost the original spec: %q", tc.spec, got.Spec)
		}
	}

	for _, bad := range []string{"", "p99", "p99=50", "bogus<5", "p99<abc", "error_rate<", "<5"} {
		if _, err := ParseThreshold(bad); err == nil {
			t.Errorf("ParseThreshold(%q) accepted", bad)
		}
	}
}

func TestParseThresholds(t *testing.T) {
	ts, err := ParseThresholds("p99<50ms, error_rate<0.1%, dropped_rate<1%")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("got %d thresholds, want 3", len(ts))
	}
	if _, err := ParseThresholds(""); err == nil {
		t.Fatal("empty threshold list accepted")
	}
	if _, err := ParseThresholds("p99<50ms,bogus<5"); err == nil {
		t.Fatal("list with a bad entry accepted")
	}
}

func TestThresholdEval(t *testing.T) {
	c := Counts{
		Scheduled: 1000, Dropped: 10, Attempts: 990,
		Errors: 1, OK: 900, NonOK: 89, Shed: 80,
		ElapsedS: 10,
		OKP50Ms:  5, OKP90Ms: 20, OKP99Ms: 45, OKMaxMs: 120,
	}
	for _, tc := range []struct {
		spec      string
		wantValue float64
		wantOK    bool
	}{
		{"p99<50ms", 45, true},
		{"p99<45ms", 45, false},
		{"p99<=45ms", 45, true},
		{"max<100ms", 120, false},
		{"error_rate<0.5%", 100.0 / 990, true},
		{"dropped_rate<1%", 1, false}, // 10/1000 = 1%, strict <
		{"shed_rate<10%", 100 * 80.0 / 990, true},
		{"ok_rps>=90", 90, true},
		{"ok_rps>90", 90, false},
	} {
		th, err := ParseThreshold(tc.spec)
		if err != nil {
			t.Fatalf("%q: %v", tc.spec, err)
		}
		v, ok := th.Eval(c)
		if v != tc.wantValue || ok != tc.wantOK {
			t.Errorf("%q: (%g, %v), want (%g, %v)", tc.spec, v, ok, tc.wantValue, tc.wantOK)
		}
	}

	// Zero denominators: rates read as 0, which passes < and fails >.
	var empty Counts
	for spec, wantOK := range map[string]bool{
		"error_rate<0.1%": true,
		"dropped_rate<1%": true,
		"ok_rps>=1":       false,
	} {
		th, _ := ParseThreshold(spec)
		if v, ok := th.Eval(empty); v != 0 || ok != wantOK {
			t.Errorf("empty run %q: (%g, %v), want (0, %v)", spec, v, ok, wantOK)
		}
	}
}
