package schedule

import "fmt"

// BuildGreedy builds spec by greedy dispatch on a throwaway engine, the
// path Build takes for specs with no block (V-Half), whatever the spec:
// the subject of the differential tests, and the oracle the block orders
// are gated against.
func BuildGreedy(spec *Spec) (*Timeline, error) { return buildOwned(spec, (*engine).buildGreedy) }

// BuildGreedy is Engine.Build on greedy dispatch whatever the spec, with
// prefix replay from the previous greedy build.
func (en *Engine) BuildGreedy(spec *Spec) (*Timeline, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return en.e.buildGreedy(spec)
}

// Retime times tl's per-device order (ByDevice) afresh through the
// fixed-order timer on a throwaway engine.
func Retime(tl *Timeline) (*Timeline, error) { return retime(tl.Spec, tl.ByDevice) }

// retime times the per-device orders rows, under spec's durations, through
// the fixed-order timer on a throwaway engine.
func retime(spec *Spec, rows [][]TimedPass) (*Timeline, error) {
	var e engine
	e.reset(spec)
	for d, row := range rows {
		if len(row) != cap(e.byDevice[d]) {
			return nil, fmt.Errorf("schedule: device %d holds %d passes, the spec calls for %d", d, len(row), cap(e.byDevice[d]))
		}
		copy(e.byDevice[d][:len(row)], row)
	}
	out, err := e.timeRows()
	if err != nil {
		return nil, err
	}
	out.arena = false
	return out, nil
}

// InFlightCap is device d's in-flight cap on a one-chunk spec: greedy
// dispatch's bound, and a block's warm-up plus one.
func InFlightCap(spec *Spec, d int) int { return inFlightCap(spec, d, 0) }

// Timed is how many passes the engine's last Build timed.
func (en *Engine) Timed() int { return en.e.timed }
