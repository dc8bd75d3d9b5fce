// Package metrics is a small, dependency-free metrics registry rendered in
// the Prometheus text exposition format — the observability spine behind
// vpserve's GET /metrics. It supports the three instrument kinds the service
// needs (monotone counters, gauges, histograms with fixed buckets), each
// with optional labels, plus func-backed families that read counters other
// packages already maintain (cache stats, job-queue depth, per-worker
// circuit state) at scrape time instead of duplicating their bookkeeping.
//
// Design constraints, in order:
//
//   - correctness under concurrency: instruments are lock-free atomics, safe
//     to update from every request goroutine; a scrape never blocks writers;
//   - monotone counters: a counter's rendered value never decreases between
//     scrapes, and a histogram's bucket lines are cumulative and
//     "+Inf"-terminated with _count equal to the +Inf bucket by
//     construction — the invariants the conformance test pins;
//   - deterministic output: families render sorted by name and series sorted
//     by label values, so two scrapes of an idle registry are byte-identical.
//
// Registration happens once at wiring time, so malformed registrations
// (duplicate names, unsorted buckets, label arity mismatches) panic rather
// than returning errors nobody checks.
package metrics

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the Prometheus metric type a family advertises in its # TYPE line.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// DefLatencyBuckets are the fixed request-latency buckets (seconds) the
// server's duration histograms use: 0.5ms to 10s, roughly geometric — wide
// enough for a cache hit (~100µs) and a cold 4096-cell sweep alike.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Sample is one series a func-backed family reports at scrape time.
type Sample struct {
	// Labels are the label values, matching the family's label names in
	// order.
	Labels []string
	Value  float64
}

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// Registry holds metric families and renders them. Construct with
// NewRegistry; a Registry is safe for concurrent registration, updates and
// scrapes (though registration is expected to happen once, at wiring time).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric family: either static (children created by
// With/instrument constructors) or func-backed (collect reads the samples
// from elsewhere at scrape time).
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histograms only

	mu       sync.Mutex
	children map[string]child // key: label values joined by \xff
	collect  func() []Sample  // func-backed families; nil otherwise
}

type child interface {
	write(w io.Writer, series string) error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register validates and stores a new family, panicking on misuse — every
// call site is static wiring code.
func (r *Registry) register(name, help string, kind Kind, labels []string, buckets []float64, collect func() []Sample) *family {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelRe.MatchString(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q in family %q", l, name))
		}
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q buckets not strictly increasing", name))
		}
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]child),
		collect:  collect,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("metrics: duplicate registration of %q", name))
	}
	r.families[name] = f
	return f
}

// Counter registers an unlabeled monotone counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, KindCounter, nil, nil, nil)
	return f.counter()
}

// CounterVec registers a counter family with labels; series are created on
// first With.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, KindCounter, labels, nil, nil)}
}

// Gauge registers an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, KindGauge, nil, nil, nil)
	return f.gauge()
}

// Histogram registers an unlabeled histogram with the given bucket upper
// bounds (strictly increasing; "+Inf" is appended implicitly).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, KindHistogram, nil, buckets, nil)
	return f.histogram()
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, KindHistogram, labels, buckets, nil)}
}

// CounterFunc registers a counter whose value is read at scrape time. The
// function must be monotone non-decreasing (it typically loads an atomic
// another package already maintains).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, KindCounter, nil, fn)
}

// GaugeFunc registers a gauge read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.registerFunc(name, help, KindGauge, nil, fn)
}

func (r *Registry) registerFunc(name, help string, kind Kind, labels []string, fn func() float64) {
	r.register(name, help, kind, labels, nil, func() []Sample {
		return []Sample{{Value: fn()}}
	})
}

// CounterSamples registers a labeled counter family whose series are
// enumerated at scrape time (e.g. per-worker request totals read from the
// cluster dispatcher). Each reported sample must stay monotone per label
// set.
func (r *Registry) CounterSamples(name, help string, labels []string, fn func() []Sample) {
	r.register(name, help, KindCounter, labels, nil, fn)
}

// GaugeSamples registers a labeled gauge family enumerated at scrape time.
func (r *Registry) GaugeSamples(name, help string, labels []string, fn func() []Sample) {
	r.register(name, help, KindGauge, labels, nil, fn)
}

// ---- instruments ----

// Counter is a monotone counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (counters only grow).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

func (c *Counter) write(w io.Writer, series string) error {
	_, err := fmt.Fprintf(w, "%s %d\n", series, c.v.Load())
	return err
}

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(w io.Writer, series string) error {
	_, err := fmt.Fprintf(w, "%s %s\n", series, formatFloat(g.Value()))
	return err
}

// Histogram counts observations into fixed buckets. Rendering is cumulative
// per the exposition format; _count is derived from the bucket counts so the
// "+Inf" bucket always equals _count even under concurrent observation.
type Histogram struct {
	buckets []float64
	counts  []atomic.Uint64 // len(buckets)+1; last is the +Inf overflow
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.buckets, v) // first bucket with bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (h *Histogram) write(w io.Writer, series string) error {
	name, labels := splitSeries(series)
	var cum uint64
	for i, b := range h.buckets {
		cum += h.counts[i].Load()
		if err := writeSeries(w, name+"_bucket", labels+pair("le", formatFloat(b)), strconv.FormatUint(cum, 10)); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.buckets)].Load()
	if err := writeSeries(w, name+"_bucket", labels+pair("le", "+Inf"), strconv.FormatUint(cum, 10)); err != nil {
		return err
	}
	if err := writeSeries(w, name+"_sum", labels, formatFloat(math.Float64frombits(h.sumBits.Load()))); err != nil {
		return err
	}
	return writeSeries(w, name+"_count", labels, strconv.FormatUint(cum, 10))
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// With returns the counter for the given label values, creating it on first
// use. The number of values must match the registered label names.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() child { return &Counter{} }).(*Counter)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	f := v.f
	return f.child(values, func() child {
		return &Histogram{buckets: f.buckets, counts: make([]atomic.Uint64, len(f.buckets)+1)}
	}).(*Histogram)
}

func (f *family) counter() *Counter {
	return f.child(nil, func() child { return &Counter{} }).(*Counter)
}
func (f *family) gauge() *Gauge { return f.child(nil, func() child { return &Gauge{} }).(*Gauge) }
func (f *family) histogram() *Histogram {
	return f.child(nil, func() child {
		return &Histogram{buckets: f.buckets, counts: make([]atomic.Uint64, len(f.buckets)+1)}
	}).(*Histogram)
}

// child returns the series for the label values, creating it if needed.
func (f *family) child(values []string, make func() child) child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: family %q has %d labels, got %d values", f.name, len(f.labels), len(values)))
	}
	// The key joins the values with \xff in a stack buffer; a map index by
	// string(key) does not allocate, so finding an existing series is free.
	var buf [128]byte
	key := buf[:0]
	for i, v := range values {
		if i > 0 {
			key = append(key, '\xff')
		}
		key = append(key, v...)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[string(key)]
	if !ok {
		c = make()
		f.children[string(key)] = c
	}
	return c
}

// ---- rendering ----

// WritePrometheus renders every family in the text exposition format,
// families sorted by name and series by label values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
		f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
		return err
	}
	if f.collect != nil {
		samples := f.collect()
		sort.Slice(samples, func(i, j int) bool {
			return strings.Join(samples[i].Labels, "\xff") < strings.Join(samples[j].Labels, "\xff")
		})
		for _, s := range samples {
			if len(s.Labels) != len(f.labels) {
				panic(fmt.Sprintf("metrics: family %q collector returned %d label values, want %d",
					f.name, len(s.Labels), len(f.labels)))
			}
			val := formatFloat(s.Value)
			if f.kind == KindCounter {
				// Counters render as integers when whole, like the static kind.
				if s.Value == math.Trunc(s.Value) && !math.IsInf(s.Value, 0) {
					val = strconv.FormatInt(int64(s.Value), 10)
				}
			}
			if err := writeSeries(w, f.name, f.labelString(s.Labels), val); err != nil {
				return err
			}
		}
		return nil
	}
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	children := make([]child, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	f.mu.Unlock()
	for i, c := range children {
		var values []string
		if keys[i] != "" || len(f.labels) > 0 {
			values = strings.Split(keys[i], "\xff")
		}
		series := f.name + f.labelString(values)
		if err := c.write(w, series); err != nil {
			return err
		}
	}
	return nil
}

// labelString renders {k="v",...} for the family's label names with the
// given values, or "" when unlabeled.
func (f *family) labelString(values []string) string {
	if len(f.labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// splitSeries separates "name{labels}" back into name and "{labels}" so
// histogram children can splice the le label in. A series with no labels
// returns ("name", "").
func splitSeries(series string) (name, labels string) {
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return series[:i], series[i:]
	}
	return series, ""
}

// pair splices one more label into an existing "{...}" block (or starts
// one).
func pair(k, v string) string {
	return "{" + k + `="` + escapeLabel(v) + `"}`
}

// writeSeries writes one sample line, merging a trailing label block into
// the base labels when both exist.
func writeSeries(w io.Writer, name, labels, value string) error {
	series := name
	if labels != "" {
		series += labels
	}
	// Merge "}{"+ produced by appending pair() after existing labels.
	series = strings.Replace(series, "}{", ",", 1)
	_, err := fmt.Fprintf(w, "%s %s\n", series, value)
	return err
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
