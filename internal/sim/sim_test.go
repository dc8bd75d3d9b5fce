package sim

import (
	"math"
	"testing"

	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/schedule"
)

func cfg(name string) costmodel.Config {
	c, ok := costmodel.ConfigByName(name)
	if !ok {
		panic("missing config " + name)
	}
	return c
}

// small returns a config shrunk to keep unit tests fast while preserving the
// schedule structure (m ≥ 3p).
func small(name string) costmodel.Config {
	c := cfg(name)
	c.NumMicro = 4 * c.Devices
	return c
}

func TestMethodStrings(t *testing.T) {
	names := map[Method]string{
		Baseline: "baseline", Redis: "redis", Vocab1: "vocab-1", Vocab2: "vocab-2",
		Interlaced: "interlaced", VHalfBaseline: "vhalf-baseline", VHalfVocab1: "vhalf-vocab-1",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestAllMethodsRunAndValidate(t *testing.T) {
	c := small("4B")
	for _, m := range OneF1BMethods {
		r, err := Run(c, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := r.Timeline.Validate(); err != nil {
			t.Errorf("%v: invalid timeline: %v", m, err)
		}
		if r.MFU <= 0 || r.MFU >= 1 {
			t.Errorf("%v: MFU %v out of range", m, r.MFU)
		}
	}
	c7 := small("7B")
	for _, m := range VHalfMethods {
		r, err := Run(c7, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if err := r.Timeline.Validate(); err != nil {
			t.Errorf("%v: invalid timeline: %v", m, err)
		}
	}
}

// TestBaselineMFUDegradesWithVocab is the Fig 11 baseline shape: MFU falls
// monotonically as the vocabulary grows.
func TestBaselineMFUDegradesWithVocab(t *testing.T) {
	c := small("4B")
	prev := 1.0
	for _, v := range costmodel.VocabSizes {
		r := MustRun(c.WithVocab(v), Baseline)
		if r.MFU >= prev {
			t.Errorf("baseline MFU should fall with vocab: V=%d gives %v (prev %v)", v, r.MFU, prev)
		}
		prev = r.MFU
	}
	// And the drop is large: ≥40% relative from 32k to 256k (paper: 46→25).
	lo := MustRun(c.WithVocab(256*1024), Baseline).MFU
	hi := MustRun(c.WithVocab(32*1024), Baseline).MFU
	if lo > 0.6*hi {
		t.Errorf("baseline should lose ≥40%% MFU at 256k: %v vs %v", lo, hi)
	}
}

// TestVocabMFUFlat is the headline Fig 11 shape: Vocabulary Parallelism keeps
// MFU steady regardless of vocabulary size.
func TestVocabMFUFlat(t *testing.T) {
	c := small("4B")
	for _, m := range []Method{Vocab1, Vocab2, Interlaced} {
		lo, hi := 1.0, 0.0
		for _, v := range costmodel.VocabSizes {
			mfu := MustRun(c.WithVocab(v), m).MFU
			if mfu < lo {
				lo = mfu
			}
			if mfu > hi {
				hi = mfu
			}
		}
		if (hi-lo)/hi > 0.15 {
			t.Errorf("%v: MFU spread %v–%v exceeds 15%%", m, lo, hi)
		}
	}
}

// TestVocabBeatsBaselineAndRedis: Table 5's ordering at large vocabularies.
func TestVocabBeatsBaselineAndRedis(t *testing.T) {
	for _, name := range []string{"4B", "10B", "21B"} {
		c := small(name).WithVocab(256 * 1024)
		base := MustRun(c, Baseline).MFU
		redis := MustRun(c, Redis).MFU
		v1 := MustRun(c, Vocab1).MFU
		v2 := MustRun(c, Vocab2).MFU
		if redis <= base {
			t.Errorf("%s: redis (%v) should beat baseline (%v) at 256k", name, redis, base)
		}
		if v1 <= redis || v2 <= redis {
			t.Errorf("%s: vocab (%v/%v) should beat redis (%v) at 256k", name, v1, v2, redis)
		}
		// Paper headline: up to ~2x over baseline at 256k.
		if v2 < 1.5*base {
			t.Errorf("%s: vocab-2 (%v) should be ≥1.5x baseline (%v) at 256k", name, v2, base)
		}
	}
}

// TestInterlacedCrossover: interlaced wins or ties within one node (8 GPUs)
// but loses to Vocabulary Parallelism across nodes (16/32 GPUs) because its
// all-reduces are synchronous (§6.3: 6.7–8.2% on the 21B model).
func TestInterlacedCrossover(t *testing.T) {
	c8 := small("4B").WithVocab(256 * 1024)
	if MustRun(c8, Interlaced).MFU < 0.95*MustRun(c8, Vocab1).MFU {
		t.Errorf("8 GPUs: interlaced should be competitive with vocab-1")
	}
	for _, name := range []string{"10B", "21B"} {
		c := small(name).WithVocab(256 * 1024)
		inter := MustRun(c, Interlaced).MFU
		v1 := MustRun(c, Vocab1).MFU
		if v1 <= inter {
			t.Errorf("%s (multi-node): vocab-1 (%v) should beat interlaced (%v)", name, v1, inter)
		}
		if v1 < 1.03*inter || v1 > 1.25*inter {
			t.Errorf("%s: vocab-1/interlaced gap %v out of the paper's 3–25%% band", name, v1/inter)
		}
	}
}

// TestVocabMemoryFlat: Fig 12 — vocab methods' peak memory barely grows with
// vocabulary while the baseline's explodes.
func TestVocabMemoryFlat(t *testing.T) {
	c := small("4B")
	baseGrowth := MustRun(c.WithVocab(256*1024), Baseline).MaxMem - MustRun(c.WithVocab(32*1024), Baseline).MaxMem
	vocabGrowth := MustRun(c.WithVocab(256*1024), Vocab2).MaxMem - MustRun(c.WithVocab(32*1024), Vocab2).MaxMem
	if vocabGrowth > baseGrowth/2 {
		t.Errorf("vocab memory growth %v should be far below baseline growth %v", vocabGrowth, baseGrowth)
	}
}

// TestVocab2UsesLessMemoryThanVocab1: one fewer barrier = one fewer in-flight
// microbatch (Fig 10).
func TestVocab2UsesLessMemoryThanVocab1(t *testing.T) {
	c := small("4B").WithVocab(128 * 1024)
	v1 := MustRun(c, Vocab1)
	v2 := MustRun(c, Vocab2)
	if v2.MaxMem >= v1.MaxMem {
		t.Errorf("vocab-2 memory %v should be below vocab-1 %v", v2.MaxMem, v1.MaxMem)
	}
	if v2.InFlight[0] != v1.InFlight[0]-1 {
		t.Errorf("vocab-2 in-flight %d, want vocab-1 (%d) minus 1", v2.InFlight[0], v1.InFlight[0])
	}
}

// TestInterlacedMemoryAboveVocab: App B.1 — the interlaced pipeline pays 1.5×
// activation, so its peak memory exceeds both vocab variants'.
func TestInterlacedMemoryAboveVocab(t *testing.T) {
	c := small("4B").WithVocab(128 * 1024)
	inter := MustRun(c, Interlaced).MaxMem
	v1 := MustRun(c, Vocab1).MaxMem
	if inter <= v1 {
		t.Errorf("interlaced memory %v should exceed vocab-1 %v", inter, v1)
	}
}

// TestInterlacedOOMAt21B4096: the paper's Table 5 shows Interlaced OOM when
// training the 21B model with sequence length 4096.
func TestInterlacedOOMAt21B4096(t *testing.T) {
	c := small("21B").WithSeq(4096).WithVocab(256 * 1024)
	if !MustRun(c, Interlaced).OOM {
		t.Errorf("interlaced should OOM at 21B/4096/256k")
	}
	if MustRun(c, Vocab1).OOM {
		t.Errorf("vocab-1 should fit at 21B/4096/256k")
	}
}

// TestVHalfBaselineImbalanceAndOOM: Fig 14 — the baseline V-Half concentrates
// both vocabulary layers on device 0 (up to ~45 GB device spread) and OOMs at
// 32 GPUs with a 256k vocabulary; Vocab-1 stays balanced and fits.
func TestVHalfBaselineImbalanceAndOOM(t *testing.T) {
	c := small("30B").WithVocab(256 * 1024)
	base := MustRun(c, VHalfBaseline)
	if !base.OOM {
		t.Errorf("V-Half baseline should OOM at 30B/256k")
	}
	if spread := base.MaxMem - base.MinMem; spread < 20*costmodel.GiB {
		t.Errorf("V-Half baseline device spread %v GB, want ≥ 20", spread/costmodel.GiB)
	}
	v1 := MustRun(c, VHalfVocab1)
	if v1.OOM {
		t.Errorf("V-Half vocab-1 should fit at 30B/256k")
	}
	if spread := v1.MaxMem - v1.MinMem; spread > 5*costmodel.GiB {
		t.Errorf("V-Half vocab-1 spread %v GB, want ≤ 5 (balanced)", spread/costmodel.GiB)
	}
}

// TestVHalfVocabBeatsBaseline: Fig 13 — 7.2% to 143% (×2.4) improvement.
func TestVHalfVocabBeatsBaseline(t *testing.T) {
	for _, name := range []string{"7B", "16B"} {
		c := small(name)
		for _, v := range costmodel.VocabSizes {
			base := MustRun(c.WithVocab(v), VHalfBaseline).MFU
			v1 := MustRun(c.WithVocab(v), VHalfVocab1).MFU
			if v1 <= base {
				t.Errorf("%s V=%d: vocab-1 (%v) should beat baseline (%v)", name, v, v1, base)
			}
		}
		// At 256k the gap approaches the paper's ~2.4x.
		base := MustRun(c.WithVocab(256*1024), VHalfBaseline).MFU
		v1 := MustRun(c.WithVocab(256*1024), VHalfVocab1).MFU
		if v1 < 1.8*base {
			t.Errorf("%s: 256k improvement %vx, want ≥1.8x", name, v1/base)
		}
	}
}

// TestVHalfMemoryBelow1F1B: V-Half's reason to exist.
func TestVHalfMemoryBelow1F1B(t *testing.T) {
	// Compare activation footprints on an identical model by running the
	// 1F1B methods on the 7B config.
	c := small("7B").WithVocab(32 * 1024)
	oneF1B := MustRun(c, Vocab1)
	vhalf := MustRun(c, VHalfVocab1)
	// Device 0's peak memory less what it holds whatever the schedule.
	act := func(r *Result) float64 {
		tl := r.Timeline
		return r.PeakMem[0] - tl.DeviceParamBytes(0) - tl.DeviceExtraActBytes(0) - costmodel.RuntimeOverheadBytes
	}
	actOne, actHalf := act(oneF1B), act(vhalf)
	if actHalf > 0.75*actOne {
		t.Errorf("V-Half activation %v should be ≤ 0.75x of 1F1B's %v", actHalf, actOne)
	}
}

// TestAblationB2: removing the synchronous all-reduces from the interlaced
// pipeline speeds it up ~11% at 32 GPUs (Appendix B.2).
func TestAblationB2(t *testing.T) {
	c := small("21B").WithVocab(256 * 1024)
	spec, err := BuildSpec(c, Interlaced)
	if err != nil {
		t.Fatal(err)
	}
	withSync := MustRun(c, Interlaced).IterTime
	spec.Interlaced.SyncTime = 0
	tl, err := schedule.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	speedup := (withSync - tl.Makespan) / withSync
	if speedup < 0.03 || speedup > 0.30 {
		t.Errorf("sync removal speedup %v, want in [3%%, 30%%] (paper ~11%%)", speedup)
	}
}

func TestUnknownMethod(t *testing.T) {
	if _, err := Run(small("4B"), Method(99)); err == nil {
		t.Fatalf("expected error for unknown method")
	}
}

func TestRedisEqualsBaselineAt32k(t *testing.T) {
	// §6.3 / Table 5: at 32k the output layer is below one transformer layer,
	// so redistribution changes nothing (46.16 vs 46.01 in the paper).
	c := small("4B").WithVocab(32 * 1024)
	base := MustRun(c, Baseline).MFU
	redis := MustRun(c, Redis).MFU
	if redis < 0.97*base || redis > 1.05*base {
		t.Errorf("redis (%v) should be ≈ baseline (%v) at 32k", redis, base)
	}
}

// TestInputLayerHolding: Appendix C — with vocabulary parallelism each
// device holds the input layer's output for at most two microbatches; the
// memory model charges exactly that per in-flight vocab microbatch window.
func TestInputLayerHolding(t *testing.T) {
	c := small("4B")
	spec, err := BuildSpec(c, Vocab1)
	if err != nil {
		t.Fatal(err)
	}
	p := float64(c.Devices)
	want := 2 * c.InputActivationBytesPerMicrobatch() / p
	got := spec.Vocab.ActBytes - c.VocabOutputActivationBytes(1/p)
	if math.Abs(got-want) > 1 {
		t.Fatalf("input-layer holding charge = %v, want 2 microbatches/p = %v", got, want)
	}
}

// TestRunnerResultsSurviveEngineReuse is the aliasing regression test for
// warm-engine reuse: the Result objects a Runner hands out are what the
// server's response cache and sweep's result set retain, so they must not
// alias the pooled engine's arena. Snapshot-free version: cache an early
// result, keep churning the same runner through other cells (which rewrites
// the engine's arena in place), then require the cached result — timeline
// included — to still equal a fresh throwaway-engine build of its cell.
func TestRunnerResultsSurviveEngineReuse(t *testing.T) {
	r := NewRunner()
	r.KeepTimeline = true
	c := small("4B")

	cached, err := r.Run(c, Vocab1)
	if err != nil {
		t.Fatal(err)
	}
	if cached.Timeline == nil {
		t.Fatal("KeepTimeline set but no timeline attached")
	}
	if cached.Timeline.Detach() != cached.Timeline {
		t.Fatal("cached result's timeline still aliases the engine arena")
	}

	// Churn the same runner: every method, shifting microbatch counts, so
	// the engine's arena and the analyzer scratch are rewritten many times.
	for i, m := range AllMethods {
		c2 := c
		c2.NumMicro = c.NumMicro + i%3
		if _, err := r.Run(c2, m); err != nil {
			t.Fatalf("churn %v: %v", m, err)
		}
	}

	fresh, err := Run(c, Vocab1)
	if err != nil {
		t.Fatal(err)
	}
	if cached.IterTime != fresh.IterTime || cached.MFU != fresh.MFU ||
		cached.MaxMem != fresh.MaxMem || cached.MinMem != fresh.MinMem ||
		cached.Bubble != fresh.Bubble || cached.OOM != fresh.OOM {
		t.Fatalf("cached scalars mutated by engine reuse:\n cached %+v\n fresh  %+v", cached, fresh)
	}
	for d := range fresh.PeakMem {
		if cached.PeakMem[d] != fresh.PeakMem[d] {
			t.Fatalf("cached PeakMem[%d] = %v, fresh %v", d, cached.PeakMem[d], fresh.PeakMem[d])
		}
		if cached.InFlight[d] != fresh.InFlight[d] {
			t.Fatalf("cached InFlight[%d] = %v, fresh %v", d, cached.InFlight[d], fresh.InFlight[d])
		}
	}
	if len(cached.Timeline.Passes) != len(fresh.Timeline.Passes) {
		t.Fatalf("cached timeline has %d passes, fresh %d", len(cached.Timeline.Passes), len(fresh.Timeline.Passes))
	}
	for k := range fresh.Timeline.Passes {
		if cached.Timeline.Passes[k] != fresh.Timeline.Passes[k] {
			t.Fatalf("cached timeline pass %d mutated by engine reuse:\n cached %+v\n fresh  %+v",
				k, cached.Timeline.Passes[k], fresh.Timeline.Passes[k])
		}
	}
}

// TestPassCountMatchesBuild pins PassCount to the engine: for every method,
// the count equals the pass total of a real build.
func TestPassCountMatchesBuild(t *testing.T) {
	oneF1B, vhalf := small("4B"), small("7B")
	odd := oneF1B
	odd.NumMicro = 13
	narrow := vhalf
	narrow.Devices /= 2
	cases := []struct {
		cfg     costmodel.Config
		methods []Method
	}{
		{oneF1B, OneF1BMethods},
		{odd, OneF1BMethods},
		{vhalf, VHalfMethods},
		{narrow, VHalfMethods},
	}
	for _, tc := range cases {
		for _, m := range tc.methods {
			r, err := Run(tc.cfg, m)
			if err != nil {
				t.Fatalf("%s/%v: %v", tc.cfg.Name, m, err)
			}
			if got, want := PassCount(tc.cfg, m), len(r.Timeline.Passes); got != want {
				t.Errorf("%s/%v P=%d M=%d: PassCount %d, build committed %d passes",
					tc.cfg.Name, m, tc.cfg.Devices, tc.cfg.NumMicro, got, want)
			}
		}
	}
	if got := PassCount(costmodel.Config{}, Vocab1); got != 0 {
		t.Errorf("PassCount of an empty config = %d, want 0", got)
	}
}
