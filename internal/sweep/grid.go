// User-defined grids: a tiny spec language so vpbench can sweep scenarios
// beyond the paper's tables from the command line.
package sweep

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/sim"
)

// ParseGrid parses a user grid spec of the form
//
//	model=4B,10B;seq=2048,4096;vocab=32k,256k;method=vocab-1,vocab-2
//
// Keys (semicolon-separated, each with comma-separated values):
//
//	model    zoo configuration names (4B 10B 21B 7B 16B 30B); required
//	seq      sequence lengths (default: the model's)
//	vocab    vocabulary sizes, plain ints or with a k suffix (default: the model's)
//	method   method names, or the groups "1f1b", "vhalf", "all" (default: all)
//	micro    microbatches per iteration (overrides the model's)
//	devices  pipeline devices (overrides the model's; invalid splits report
//	         as per-cell errors, not grid failures)
func ParseGrid(spec string) (*Grid, error) {
	g := &Grid{Name: "custom"}
	var micros, devices []int
	seen := map[string]bool{}
	for _, kv := range strings.Split(spec, ";") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, vals, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("sweep: grid clause %q is not key=value", kv)
		}
		key = strings.TrimSpace(key)
		canon := canonicalKey(key)
		if seen[canon] {
			return nil, fmt.Errorf("sweep: duplicate grid key %q", key)
		}
		seen[canon] = true
		if len(SplitList(vals)) == 0 {
			return nil, fmt.Errorf("sweep: grid key %q has an empty value list", key)
		}
		var err error
		switch key {
		case "model", "config", "cfg":
			for _, name := range SplitList(vals) {
				cfg, ok := costmodel.ConfigByName(name)
				if !ok {
					return nil, fmt.Errorf("sweep: unknown model %q (want 4B, 10B, 21B, 7B, 16B or 30B)", name)
				}
				g.Configs = append(g.Configs, cfg)
			}
		case "seq":
			g.Seqs, err = ParseInts(vals, false)
		case "vocab":
			g.Vocabs, err = ParseInts(vals, true)
		case "method":
			g.Methods, err = ParseMethods(vals)
		case "micro":
			micros, err = ParseInts(vals, false)
		case "devices":
			devices, err = ParseInts(vals, false)
		default:
			return nil, fmt.Errorf("sweep: unknown grid key %q (want model, seq, vocab, method, micro or devices)", key)
		}
		if err != nil {
			return nil, err
		}
	}
	if len(g.Configs) == 0 {
		return nil, fmt.Errorf("sweep: grid spec needs at least one model=...")
	}
	if len(g.Methods) == 0 {
		g.Methods = sim.AllMethods
	}
	if len(micros) > 1 || len(devices) > 1 {
		return nil, fmt.Errorf("sweep: micro and devices take a single value")
	}
	for i := range g.Configs {
		if len(micros) == 1 {
			g.Configs[i].NumMicro = micros[0]
		}
		if len(devices) == 1 {
			g.Configs[i].Devices = devices[0]
		}
	}
	return g, nil
}

// canonicalKey folds the model-key aliases so "model=4B;cfg=10B" counts as a
// duplicate rather than silently merging two axes.
func canonicalKey(key string) string {
	if key == "config" || key == "cfg" {
		return "model"
	}
	return key
}

// SplitList splits a comma-separated value list, dropping empty elements.
func SplitList(vals string) []string {
	var out []string
	for _, v := range strings.Split(vals, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// ParseInts parses a comma-separated int list; kSuffix allows "32k" = 32*1024,
// and a k-suffixed value whose product passes math.MaxInt is refused.
// Exported for reuse by spec parsers layered on the sweep machinery
// (internal/tune's constraint parser shares the value syntax).
func ParseInts(vals string, kSuffix bool) ([]int, error) {
	var out []int
	for _, v := range SplitList(vals) {
		digits, mult := v, 1
		if kSuffix && (strings.HasSuffix(v, "k") || strings.HasSuffix(v, "K")) {
			digits, mult = v[:len(v)-1], 1024
		}
		n, err := strconv.Atoi(digits)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("sweep: bad value %q (want a positive integer)", digits)
		}
		if n > math.MaxInt/mult {
			return nil, fmt.Errorf("sweep: value %q overflows an int", v)
		}
		out = append(out, n*mult)
	}
	return out, nil
}

// ParseMethods parses a comma-separated method list, accepting the method
// names plus the groups "1f1b", "vhalf" and "all". Exported for the same
// spec-parser reuse as ParseInts.
func ParseMethods(vals string) ([]sim.Method, error) {
	var out []sim.Method
	for _, v := range SplitList(vals) {
		switch v {
		case "all":
			out = append(out, sim.AllMethods...)
		case "1f1b":
			out = append(out, sim.OneF1BMethods...)
		case "vhalf":
			out = append(out, sim.VHalfMethods...)
		default:
			m, ok := sim.MethodByName(v)
			if !ok {
				return nil, fmt.Errorf("sweep: unknown method %q (want one of %v, or 1f1b/vhalf/all)", v, sim.AllMethods)
			}
			out = append(out, m)
		}
	}
	return out, nil
}
