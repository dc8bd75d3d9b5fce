package load

import (
	"fmt"
	"strconv"
	"strings"
)

// Threshold is one declarative SLO gate — `p99<50ms`, `error_rate<0.1%`,
// `dropped_rate<1%` — parsed once and evaluated once, against the run's
// settled ledger. The canonical unit is milliseconds for latency metrics,
// percent for rate metrics and req/s for ok_rps.
type Threshold struct {
	Spec   string  `json:"spec"`   // the original text, for reports
	Metric string  `json:"metric"` // p50|p90|p99|max|error_rate|non_ok_rate|dropped_rate|shed_rate|ok_rps
	Op     string  `json:"op"`     // < <= > >=
	Value  float64 `json:"value"`  // RHS in the metric's canonical unit
}

// thresholdMetrics maps metric name to its unit class for parse-time
// validation: "ms" (latency), "pct" (rate) or "rps".
var thresholdMetrics = map[string]string{
	"p50": "ms", "p90": "ms", "p99": "ms", "max": "ms",
	"error_rate": "pct", "non_ok_rate": "pct", "dropped_rate": "pct", "shed_rate": "pct",
	"ok_rps": "rps",
}

// ParseThreshold parses a single `metric op value` gate. Latency values
// accept ms/s suffixes (default ms); rate values accept an optional %.
func ParseThreshold(spec string) (Threshold, error) {
	s := strings.TrimSpace(spec)
	var op string
	var at int
	for i := 0; i < len(s); i++ {
		if s[i] == '<' || s[i] == '>' {
			op = string(s[i])
			at = i
			if i+1 < len(s) && s[i+1] == '=' {
				op += "="
			}
			break
		}
	}
	if op == "" {
		return Threshold{}, fmt.Errorf("threshold %q: no comparison operator (want metric<value etc.)", spec)
	}
	metric := strings.TrimSpace(s[:at])
	unit, ok := thresholdMetrics[metric]
	if !ok {
		return Threshold{}, fmt.Errorf("threshold %q: unknown metric %q", spec, metric)
	}
	rhs := strings.TrimSpace(s[at+len(op):])
	var scale float64 = 1
	switch unit {
	case "ms":
		if v, found := strings.CutSuffix(rhs, "ms"); found {
			rhs = v
		} else if v, found := strings.CutSuffix(rhs, "s"); found {
			rhs, scale = v, 1000
		}
	case "pct":
		rhs = strings.TrimSuffix(rhs, "%")
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rhs), 64)
	if err != nil {
		return Threshold{}, fmt.Errorf("threshold %q: bad value: %v", spec, err)
	}
	return Threshold{Spec: spec, Metric: metric, Op: op, Value: v * scale}, nil
}

// ParseThresholds parses a comma-separated threshold list.
func ParseThresholds(spec string) ([]Threshold, error) {
	var out []Threshold
	for _, part := range strings.Split(spec, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		t, err := ParseThreshold(part)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("thresholds %q: empty", spec)
	}
	return out, nil
}

// Counts is the ledger snapshot a threshold evaluates against. Rates with a
// zero denominator evaluate to 0 — an empty run trivially passes `<` gates
// and fails `>` gates, which is the conservative reading for both.
type Counts struct {
	Scheduled int // arrivals the scenario scheduled
	Dropped   int // arrivals dropped because the VU pool was saturated
	Attempts  int // requests actually issued
	Errors    int // transport failures
	OK        int // 200 responses
	NonOK     int // non-200 responses
	Shed      int // 429 responses (a subset of NonOK)
	ElapsedS  float64
	// OK-only latency percentiles, milliseconds.
	OKP50Ms, OKP90Ms, OKP99Ms, OKMaxMs float64
}

// Eval returns the metric's current value and whether the gate holds.
func (t Threshold) Eval(c Counts) (value float64, ok bool) {
	rate := func(num, den int) float64 {
		if den == 0 {
			return 0
		}
		return 100 * float64(num) / float64(den)
	}
	switch t.Metric {
	case "p50":
		value = c.OKP50Ms
	case "p90":
		value = c.OKP90Ms
	case "p99":
		value = c.OKP99Ms
	case "max":
		value = c.OKMaxMs
	case "error_rate":
		value = rate(c.Errors, c.Attempts)
	case "non_ok_rate":
		value = rate(c.NonOK, c.Attempts)
	case "dropped_rate":
		value = rate(c.Dropped, c.Scheduled)
	case "shed_rate":
		value = rate(c.Shed, c.Attempts)
	case "ok_rps":
		if c.ElapsedS > 0 {
			value = float64(c.OK) / c.ElapsedS
		}
	}
	switch t.Op {
	case "<":
		ok = value < t.Value
	case "<=":
		ok = value <= t.Value
	case ">":
		ok = value > t.Value
	case ">=":
		ok = value >= t.Value
	}
	return value, ok
}

// ThresholdResult is one gate's verdict in the report: the metric's value on
// the settled ledger and whether the gate holds there.
type ThresholdResult struct {
	Spec   string  `json:"spec"`
	Metric string  `json:"metric"`
	Value  float64 `json:"value"`
	OK     bool    `json:"ok"`
}
