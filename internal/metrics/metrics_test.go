package metrics

import (
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return b.String()
}

func TestCounterGaugeRendering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "Events seen.")
	g := r.Gauge("test_depth", "Current depth.")
	c.Add(3)
	c.Inc()
	g.Set(2.5)
	out := render(t, r)
	for _, want := range []string{
		"# HELP test_events_total Events seen.\n# TYPE test_events_total counter\ntest_events_total 4\n",
		"# HELP test_depth Current depth.\n# TYPE test_depth gauge\ntest_depth 2.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLabeledSeriesSortedAndEscaped(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_requests_total", "By route.", "route", "code")
	v.With("/b", "2xx").Add(2)
	v.With("/a", "2xx").Inc()
	v.With(`quo"te\back`+"\n", "5xx").Inc()
	out := render(t, r)
	ia := strings.Index(out, `test_requests_total{route="/a",code="2xx"} 1`)
	ib := strings.Index(out, `test_requests_total{route="/b",code="2xx"} 2`)
	ie := strings.Index(out, `test_requests_total{route="quo\"te\\back\n",code="5xx"} 1`)
	if ia < 0 || ib < 0 || ie < 0 {
		t.Fatalf("missing series (a=%d b=%d esc=%d):\n%s", ia, ib, ie, out)
	}
	if !(ia < ib) {
		t.Errorf("series not sorted by label values:\n%s", out)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	out := render(t, r)
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.01"} 1`,
		`test_latency_seconds_bucket{le="0.1"} 3`,
		`test_latency_seconds_bucket{le="1"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		`test_latency_seconds_sum 5.605`,
		`test_latency_seconds_count 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_h", "h", []float64{1, 2})
	h.Observe(1) // le="1" means v <= 1: the boundary lands in its bucket
	out := render(t, r)
	if !strings.Contains(out, `test_h_bucket{le="1"} 1`+"\n") {
		t.Errorf("boundary observation missed the le=\"1\" bucket:\n%s", out)
	}
}

func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("test_dur_seconds", "d", []float64{0.5}, "route")
	hv.With("/x").Observe(0.1)
	hv.With("/x").Observe(0.9)
	out := render(t, r)
	for _, want := range []string{
		`test_dur_seconds_bucket{route="/x",le="0.5"} 1`,
		`test_dur_seconds_bucket{route="/x",le="+Inf"} 2`,
		`test_dur_seconds_count{route="/x"} 2`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFuncBackedFamilies(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.CounterFunc("test_ext_total", "External counter.", func() float64 { n++; return n })
	r.GaugeSamples("test_worker_inflight", "Per worker.", []string{"worker"}, func() []Sample {
		return []Sample{{Labels: []string{"w2"}, Value: 1}, {Labels: []string{"w1"}, Value: 3}}
	})
	out := render(t, r)
	if !strings.Contains(out, "test_ext_total 42\n") {
		t.Errorf("func counter not rendered as integer:\n%s", out)
	}
	i1 := strings.Index(out, `test_worker_inflight{worker="w1"} 3`)
	i2 := strings.Index(out, `test_worker_inflight{worker="w2"} 1`)
	if i1 < 0 || i2 < 0 || i1 > i2 {
		t.Errorf("collector samples missing or unsorted (w1=%d w2=%d):\n%s", i1, i2, out)
	}
}

func TestFamiliesSortedByName(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "z")
	r.Counter("aaa_total", "a")
	out := render(t, r)
	if strings.Index(out, "# TYPE aaa_total") > strings.Index(out, "# TYPE zzz_total") {
		t.Errorf("families not sorted by name:\n%s", out)
	}
}

func TestDuplicateAndInvalidRegistrationsPanic(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"duplicate", func(r *Registry) { r.Counter("dup_total", "a"); r.Counter("dup_total", "b") }},
		{"bad name", func(r *Registry) { r.Counter("0bad", "x") }},
		{"bad label", func(r *Registry) { r.CounterVec("ok_total", "x", "0bad") }},
		{"unsorted buckets", func(r *Registry) { r.Histogram("h", "x", []float64{2, 1}) }},
		{"label arity", func(r *Registry) { r.CounterVec("v_total", "x", "a").With("1", "2") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

// TestConcurrentUpdatesAndScrapes is the package's race proof: writers on
// every instrument kind while scrapes render concurrently. Run with -race.
func TestConcurrentUpdatesAndScrapes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	v := r.CounterVec("v_total", "v", "k")
	g := r.Gauge("g", "g")
	h := r.Histogram("h_seconds", "h", DefLatencyBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				c.Inc()
				v.With("a").Inc()
				v.With("b").Add(2)
				g.Add(1)
				h.Observe(float64(j) / 100)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var b strings.Builder
				if err := r.WritePrometheus(&b); err != nil {
					t.Errorf("scrape: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	out := render(t, r)
	if !strings.Contains(out, "c_total 2000\n") {
		t.Errorf("counter lost updates:\n%s", out)
	}
	if !strings.Contains(out, `h_seconds_count 2000`) {
		t.Errorf("histogram lost observations:\n%s", out)
	}
}

// TestWithExistingSeriesDoesNotAllocate: the request path looks its series
// up on every request, so finding a series that already exists must not
// allocate — neither the two-label counter lookup nor the one-label
// histogram one.
func TestWithExistingSeriesDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_requests_total", "By route.", "route", "code")
	h := r.HistogramVec("test_duration_seconds", "By route.", DefLatencyBuckets, "route")
	route, code := "/api/v1/schedule", "2xx"
	v.With(route, code).Inc()
	h.With(route).Observe(0.001)
	if n := testing.AllocsPerRun(100, func() { v.With(route, code).Inc() }); n != 0 {
		t.Errorf("CounterVec.With on an existing series: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.With(route).Observe(0.001) }); n != 0 {
		t.Errorf("HistogramVec.With on an existing series: %v allocations, want 0", n)
	}
	out := render(t, r)
	if !strings.Contains(out, `test_requests_total{route="/api/v1/schedule",code="2xx"} 102`) {
		t.Errorf("lookups did not land on the existing series:\n%s", out)
	}
}
