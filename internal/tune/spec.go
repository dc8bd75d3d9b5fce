// The tuning-constraint spec language: the sweep grid syntax extended with
// ranges, budgets and search knobs, shared by `vpbench -tune` and
// POST /api/v1/optimize.
package tune

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/sweep"
)

// ParseSpec parses a tuning-constraint spec of the form
//
//	model=4B;devices=8..32;micro=32,64..256;method=1f1b;mem=64;objective=mfu
//
// Keys (semicolon-separated; single-valued unless noted):
//
//	model      zoo configuration name (4B 10B 21B 7B 16B 30B); required
//	devices    candidate device counts: a comma list whose elements are
//	           plain ints or a..b ranges (a, 2a, 4a ... ≤ b); default: the
//	           model's own device count
//	micro      candidate microbatch counts, same syntax; default: the model's
//	method     comma list of method names or the groups 1f1b/vhalf/all
//	           (the layout axis); default: all
//	seq        sequence length override
//	vocab      vocabulary size override (k suffix allowed)
//	mem        per-device memory budget in GiB (the unit of every reported
//	           peak-memory figure); default: the 80 GB device model
//	objective  mfu (default) or tokens
//	beam       beam width (default 4)
//	budget     anneal evaluation budget (default 48)
//	seed       anneal random seed (default 1)
func ParseSpec(spec string) (*Spec, error) {
	s := &Spec{Name: "custom"}
	var seqOverride, vocabOverride int
	seen := map[string]bool{}
	for _, kv := range strings.Split(spec, ";") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, vals, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("tune: spec clause %q is not key=value", kv)
		}
		key = strings.TrimSpace(key)
		if seen[key] {
			return nil, fmt.Errorf("tune: duplicate spec key %q", key)
		}
		seen[key] = true
		if len(sweep.SplitList(vals)) == 0 {
			return nil, fmt.Errorf("tune: spec key %q has an empty value list", key)
		}
		var err error
		switch key {
		case "model":
			cfg, ok := costmodel.ConfigByName(strings.TrimSpace(vals))
			if !ok {
				return nil, fmt.Errorf("tune: unknown model %q (want 4B, 10B, 21B, 7B, 16B or 30B)", strings.TrimSpace(vals))
			}
			s.Base = cfg
		case "devices":
			s.Devices, err = parseRangeList(vals)
		case "micro":
			s.Micros, err = parseRangeList(vals)
		case "method":
			s.Methods, err = sweep.ParseMethods(vals)
		case "seq":
			seqOverride, err = parseSingleInt(key, vals, false)
		case "vocab":
			vocabOverride, err = parseSingleInt(key, vals, true)
		case "mem":
			gb, perr := strconv.ParseFloat(strings.TrimSpace(vals), 64)
			// NaN compares false to everything, so a plain gb <= 0 guard
			// would admit mem=nan and silently disable the budget check.
			if perr != nil || math.IsNaN(gb) || math.IsInf(gb, 0) || gb <= 0 {
				return nil, fmt.Errorf("tune: bad mem %q (want a positive, finite GiB figure)", vals)
			}
			// GiB, the unit every reported peak-memory figure uses — so the
			// budget a user types matches the numbers in the ranked table
			// and infeasibility messages.
			s.MemBudgetBytes = gb * costmodel.GiB
		case "objective":
			s.Objective = Objective(strings.TrimSpace(vals))
		case "beam":
			s.BeamWidth, err = parseSingleInt(key, vals, false)
		case "budget":
			s.Budget, err = parseSingleInt(key, vals, false)
		case "seed":
			n, perr := strconv.ParseInt(strings.TrimSpace(vals), 10, 64)
			if perr != nil || n <= 0 {
				return nil, fmt.Errorf("tune: bad seed %q (want a positive integer)", vals)
			}
			s.Seed = n
		default:
			return nil, fmt.Errorf("tune: unknown spec key %q (want model, devices, micro, method, seq, vocab, mem, objective, beam, budget or seed)", key)
		}
		if err != nil {
			return nil, err
		}
	}
	if s.Base.Name == "" {
		return nil, fmt.Errorf("tune: spec needs model=...")
	}
	// Overrides are applied after the loop so seq=/vocab= clauses work no
	// matter where they appear relative to model=.
	if seqOverride > 0 {
		s.Base = s.Base.WithSeq(seqOverride)
	}
	if vocabOverride > 0 {
		s.Base = s.Base.WithVocab(vocabOverride)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseSingleInt enforces a one-element int value for scalar keys.
func parseSingleInt(key, vals string, kSuffix bool) (int, error) {
	ints, err := sweep.ParseInts(vals, kSuffix)
	if err != nil {
		return 0, fmt.Errorf("tune: key %q: %w", key, err)
	}
	if len(ints) != 1 {
		return 0, fmt.Errorf("tune: key %q takes a single value, got %d", key, len(ints))
	}
	return ints[0], nil
}

// parseRangeList parses the devices/micro axis syntax: comma-separated
// elements, each a plain positive int or an "a..b" range that expands to the
// doubling sequence a, 2a, 4a ... ≤ b. The result is deduplicated and
// sorted ascending (strategies rely on ordered axes).
func parseRangeList(vals string) ([]int, error) {
	set := map[int]bool{}
	for _, item := range sweep.SplitList(vals) {
		lo, hi, isRange := strings.Cut(item, "..")
		if !isRange {
			ints, err := sweep.ParseInts(item, false)
			if err != nil {
				return nil, err
			}
			set[ints[0]] = true
			continue
		}
		a, err1 := strconv.Atoi(strings.TrimSpace(lo))
		b, err2 := strconv.Atoi(strings.TrimSpace(hi))
		if err1 != nil || err2 != nil || a <= 0 || b < a {
			return nil, fmt.Errorf("tune: bad range %q (want lo..hi with 0 < lo <= hi)", item)
		}
		for v := a; v <= b; {
			set[v] = true
			if v > b/2 {
				break // doubling would pass b — or wrap around on huge bounds
			}
			v *= 2
		}
	}
	out := make([]int, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Ints(out)
	return out, nil
}
