package schedule

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Build constructs the timed schedule for spec. It returns an error if the
// spec is inconsistent or the constructor cannot make progress (which would
// indicate a dependency cycle — none of the shipped generators produce one).
//
// Build uses the event-driven engine on a throwaway Engine, so the returned
// timeline owns its memory and is safe to retain indefinitely. Callers that
// build many schedules back to back should hold a reusable Engine instead:
// a warm engine recycles all of its state arenas and, when consecutive
// specs differ only in M, replays their shared prefix instead of
// re-simulating it.
func Build(spec *Spec) (*Timeline, error) { return buildOwned(spec, (*engine).run) }

// BuildScan constructs the timed schedule by full recompute: after each
// committed pass it re-enumerates every slot of every device through the
// engine's own per-slot rules and folds all P choices again. It is the
// differential-testing oracle for Build's incremental machinery (dirty-kind
// invalidation, cached per-device choices, the resumed fold, prefix replay);
// the two produce bit-identical timelines. Timeline.Validate remains the
// independent check of the dependency rules themselves.
func BuildScan(spec *Spec) (*Timeline, error) { return buildOwned(spec, (*engine).runScan) }

// buildOwned validates spec and builds it with loop on a throwaway engine,
// whose memory the returned timeline then owns.
func buildOwned(spec *Spec, loop func(*engine) (*Timeline, error)) (*Timeline, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var e engine
	e.prepare(spec)
	tl, err := loop(&e)
	if err != nil {
		return nil, err
	}
	tl.arena = false
	return tl, nil
}

// MustBuild is Build for specs known to be valid (generators, tests). The
// panic message identifies the offending spec by name and dimensions.
func MustBuild(spec *Spec) *Timeline {
	tl, err := Build(spec)
	if err != nil {
		panic(fmt.Sprintf("schedule: MustBuild(%s): %v", spec.Describe(), err))
	}
	return tl
}

// Engine is a reusable schedule constructor. All working state — per-pass
// bookkeeping, dispatch caches, and the committed timeline itself — is
// carved from arenas the engine owns and recycles, so a warm engine builds
// a schedule without allocating. Use NewEngine (or the zero value) and call
// Build repeatedly.
//
// Reuse safety contract: the *Timeline returned by Build aliases the
// engine's arena and is valid only until the next Build on the same
// engine. A caller that retains a timeline past that point must call
// Timeline.Detach for a compact self-owned copy. The package-level
// Build/BuildScan helpers use a throwaway engine, so their timelines are
// always safe to retain.
//
// Prefix replay runs along the microbatch axis only: when consecutive Build
// calls receive specs equal in everything but M and Name (a sweep chain, a
// tuner's microbatch axis), the engine copies the previous build's commits
// up to the first one of microbatch min(M, M′) − 1 or later instead of
// re-simulating them; a spec equal in M too is copied whole. Any other
// difference falls back to a scratch build. Output is bit-identical to a
// scratch build in every case; the differential tests and
// FuzzDifferentialEngines pin scan, scratch and warm-incremental builds
// against each other.
//
// An Engine is not safe for concurrent use; pool engines per worker
// (sweep.Run does this internally).
type Engine struct {
	e engine
}

// NewEngine returns an empty engine ready for its first Build.
func NewEngine() *Engine { return &Engine{} }

// Build validates spec and constructs its schedule, reusing the engine's
// arenas and any committed prefix shared with the previous build. The
// returned timeline is valid until the next Build (see the type comment).
func (en *Engine) Build(spec *Spec) (*Timeline, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	en.e.prepare(spec)
	return en.e.run()
}

const unscheduled = -1.0

// prevBuild is the previous completed build's spec, copied by value so the
// caller may mutate or discard its own after Build returns: Stages is the
// snapshot's own slice, and Vocab and Interlaced point at the copies beside
// it.
type prevBuild struct {
	Spec
	vocab      VocabSpec
	interlaced InterlacedSpec
}

type engine struct {
	spec    *Spec
	nStage  int
	last    int // last stage index
	lastDev int // device executing the last stage

	// Flat per-build state, carved from fArena/iArena by reset:
	// [stage*M+micro] for fEnd/bEnd, [device*M+micro] for sEnd/tEnd/vEnd,
	// [device*Chunks+chunk] for the next*/inFlight/cap tables.
	fEnd, bEnd             []float64
	sEnd, tEnd, vEnd       []float64
	c1End, c2End, vBarrier []float64 // per micro
	stageF, stageB, stageW []float64 // per stage, flat copy of Stages durations
	freeAt                 []float64 // per device

	sRemaining, tRemaining, vRemaining []int // per micro
	nextF, nextB, nextW                []int
	nextS, nextT, nextV                []int // per device
	inFlight, capIF                    []int

	remaining int

	fArena []float64
	iArena []int

	// Timeline arena. passes is the commit-order slab; byDevice rows are
	// carved from byDevBack with exact per-device capacities. prevPasses
	// holds the previous completed build's commit order for prefix replay;
	// the two commit-order slabs alternate across builds.
	passes     []TimedPass
	prevPasses []TimedPass
	byDevice   [][]TimedPass
	byDevBack  []TimedPass
	timeline   Timeline

	prev     prevBuild
	havePrev bool

	// Dispatch state, carved by armDispatch from one slab per element type
	// (dispF, dispI, dispU). Each device caches one slot per candidate kind —
	// per chunk F, B, W, then S, T, V — holding the kind's next readiness
	// (+Inf when it has no schedulable pass). All readiness inputs are
	// write-once (fEnd/bEnd/c1End/... are set exactly once) and each kind has
	// its own cursor, so a slot stays valid until one of its specific
	// dependencies lands; applyState marks exactly those (device, kind) pairs
	// in dirtyKind and queues the device on dirtyList. slotChoice folds a
	// device's live slots in slot order, and choiceSlot/choiceStart/choicePrio
	// cache the fold result per device (+Inf start when it has none).
	// Dispatch is a linear fold over those caches that replays
	// betterCandidate's tolerance fold exactly, resumed at the block of the
	// lowest device whose choice changed. The scan oracle uses the slots but
	// none of the caches: it refreshes every slot before every fold.
	nSlots      int       // 3*Chunks + 3
	slotReady   []float64 // [device*nSlots+slot]; +Inf = no candidate
	slotDur     []float64 // [device*nSlots+slot], static per build
	slotMicro   []int     // [device*nSlots+slot], valid when ready < +Inf
	slotPrio    []int     // [slot], static per build
	wSlots      uint16    // bitmask of the W slots, static per build
	liveSlots   []uint16  // per device: bitmask of slots with finite readiness
	dirtyKind   []uint16  // per device: bitmask of slots to re-enumerate; nonzero iff queued
	dirtyList   []int
	choiceSlot  []int
	choiceStart []float64
	choicePrio  []int
	foldBest    []int // [block]: the fold's best device before device block*foldBlock (-1: none)

	dispF []float64
	dispI []int
	dispU []uint16

	// refreshes counts the per-device slot re-enumerations of the last run:
	// O(dirty) per commit, where the scan oracle recomputes all P devices.
	// foldVisits counts the devices its dispatch folds visited: P·passes for
	// a fold that always starts at device 0. replayed counts the commits the
	// last Build copied from the previous build's prefix instead of
	// dispatching them.
	refreshes  int
	foldVisits int
	replayed   int
}

// foldBlock is how many devices apart run stores dispatch-fold checkpoints.
const foldBlock = 4

// carve returns the next n elements of *slab as a slice of capacity n and
// advances *slab past them.
func carve[T any](slab *[]T, n int) []T {
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// prepare re-arms the engine for spec: it computes the committed prefix
// shared with the previous completed build, resets all state arenas, and
// replays that prefix. spec must already be validated.
func (e *engine) prepare(spec *Spec) {
	k := 0
	if e.havePrev {
		// The slab the last build filled becomes the replay source; the new
		// build fills the other one.
		e.passes, e.prevPasses = e.prevPasses, e.passes
		k = e.prefixLen(spec)
	}
	e.havePrev = false
	e.reset(spec)
	if k > 0 {
		e.replay(k)
	}
	e.replayed = k
	e.snapshotSpec(spec)
}

// prefixLen returns how many leading commits of the previous build a
// scratch build of s would commit bit-identically: none unless s equals the
// previous spec in everything but M and Name. Dispatch reads M only as
// the bound of each kind's microbatch cursor, and a commit of microbatch i
// advances its cursor to i+1, so the builds agree up to the first commit
// that could bring a cursor to min(M, M′): the first of microbatch
// min(M, M′) − 1 or later.
func (e *engine) prefixLen(s *Spec) int {
	pv := &e.prev
	if pv.P != s.P || pv.Chunks != s.Chunks || pv.SendTime != s.SendTime ||
		!slices.Equal(pv.Stages, s.Stages) || !equalPtr(pv.Vocab, s.Vocab) || !equalPtr(pv.Interlaced, s.Interlaced) {
		return 0
	}
	if pv.M == s.M {
		return len(e.prevPasses)
	}
	bound := min(pv.M, s.M) - 1
	for j := range e.prevPasses {
		if e.prevPasses[j].Micro >= bound {
			return j
		}
	}
	return len(e.prevPasses)
}

// equalPtr reports whether a and b are both nil or point at equal values.
func equalPtr[T comparable](a, b *T) bool {
	return a == nil && b == nil || a != nil && b != nil && *a == *b
}

func (e *engine) snapshotSpec(s *Spec) {
	pv := &e.prev
	stages := append(pv.Stages[:0], s.Stages...)
	pv.Spec = *s
	pv.Stages = stages
	if s.Vocab != nil {
		pv.vocab = *s.Vocab
		pv.Vocab = &pv.vocab
	}
	if s.Interlaced != nil {
		pv.interlaced = *s.Interlaced
		pv.Interlaced = &pv.interlaced
	}
}

// reset carves and re-initializes every state slab for spec.
func (e *engine) reset(spec *Spec) {
	e.spec = spec
	e.nStage = spec.NumStages()
	e.last = e.nStage - 1
	e.lastDev = spec.DeviceOf(e.last)
	P, M, C := spec.P, spec.M, spec.Chunks

	// Float state from one arena.
	nf := 2*e.nStage*M + 3*P*M + 3*M + 3*e.nStage + P
	if cap(e.fArena) < nf {
		e.fArena = make([]float64, nf)
	}
	fa := e.fArena[:nf]
	fs := fa
	e.fEnd = carve(&fs, e.nStage*M)
	e.bEnd = carve(&fs, e.nStage*M)
	e.sEnd = carve(&fs, P*M)
	e.tEnd = carve(&fs, P*M)
	e.vEnd = carve(&fs, P*M)
	e.c1End = carve(&fs, M)
	e.c2End = carve(&fs, M)
	e.vBarrier = carve(&fs, M)
	e.stageF = carve(&fs, e.nStage)
	e.stageB = carve(&fs, e.nStage)
	e.stageW = carve(&fs, e.nStage)
	e.freeAt = carve(&fs, P)
	for i := 0; i < nf-3*e.nStage-P; i++ {
		fa[i] = unscheduled
	}
	for st := 0; st < e.nStage; st++ {
		e.stageF[st] = spec.Stages[st].F
		e.stageB[st] = spec.Stages[st].B
		e.stageW[st] = spec.Stages[st].W
	}
	for d := 0; d < P; d++ {
		e.freeAt[d] = 0
	}

	// Int state from one arena.
	ni := 3*M + 3*P*C + 4*P + 2*P*C
	if cap(e.iArena) < ni {
		e.iArena = make([]int, ni)
	}
	ia := e.iArena[:ni]
	is := ia
	e.sRemaining = carve(&is, M)
	e.tRemaining = carve(&is, M)
	e.vRemaining = carve(&is, M)
	e.nextF = carve(&is, P*C)
	e.nextB = carve(&is, P*C)
	e.nextW = carve(&is, P*C)
	e.nextS = carve(&is, P)
	e.nextT = carve(&is, P)
	e.nextV = carve(&is, P)
	e.inFlight = carve(&is, P*C)
	e.capIF = carve(&is, P*C)
	rowLen := carve(&is, P) // each device's pass count, set below
	for i := 0; i < 3*M; i++ {
		ia[i] = P
	}
	for i := 3 * M; i < ni; i++ {
		ia[i] = 0
	}

	// Each vocabulary barrier holds one more microbatch in flight (§5.2), and
	// the interlaced pipeline's activations live 1.5× as long (Appendix B.1).
	extra, scale := 0, 1.0
	if spec.Vocab != nil {
		extra = spec.Vocab.Barriers
	}
	if spec.Interlaced != nil {
		scale = 1.5
	}
	for d := 0; d < P; d++ {
		for c := 0; c < C; c++ {
			var base float64
			if C == 1 {
				base = float64(P - d)
			} else {
				// V-shape with split backward (B≈F≈W per half-stage): a
				// stage's lifespan is proportional to its round-trip distance
				// to the pipeline's turning point, and each device works 3
				// pass-units per microbatch per chunk, so the in-flight need
				// is lifespan/interval: (2P−1−d)/3 for the first V leg and
				// (d+1)/3 for the second. The two legs complement each other,
				// which is exactly how V-Half balances activation memory
				// across devices (Qi et al. 2024); the +1 slack absorbs
				// warmup discretization.
				if c == 0 {
					base = float64(2*P-1-d)/3 + 1
				} else {
					base = float64(d+1)/3 + 1
				}
			}
			// base >= 1 and scale >= 1, so every cap is at least 1.
			e.capIF[d*C+c] = int(ceilPos(base*scale)) + extra
		}
	}

	// Count each device's passes once: they size its timeline row, and
	// their sum is the build's total.
	total := 0
	for d := 0; d < P; d++ {
		n := 0
		for c := 0; c < C; c++ {
			n += 2 * M
			if spec.Stages[spec.StageOf(d, c)].W > 0 {
				n += M
			}
		}
		if spec.Vocab != nil {
			n += 2 * M
		}
		if spec.Interlaced != nil {
			n += M
		}
		rowLen[d] = n
		total += n
	}
	e.remaining = total

	if cap(e.passes) < total {
		e.passes = make([]TimedPass, 0, total)
	}
	e.passes = e.passes[:0]
	if cap(e.byDevBack) < total {
		e.byDevBack = make([]TimedPass, total)
	}
	if cap(e.byDevice) < P {
		e.byDevice = make([][]TimedPass, P)
	}
	e.byDevice = e.byDevice[:P]
	off := 0
	for d, n := range rowLen {
		e.byDevice[d] = e.byDevBack[off : off : off+n]
		off += n
	}
}

// ceilPos is math.Ceil for the engine's finite non-negative cap arithmetic,
// kept inlineable.
func ceilPos(x float64) float64 {
	f := float64(int64(x))
	if f < x {
		return f + 1
	}
	return f
}

// replay re-applies the first k commits of the previous build using the
// recorded intervals verbatim (summing start+duration again could diverge
// by an ulp; the recorded End is the ground truth the rest of the schedule
// was built on). It skips dirty tracking entirely: run re-derives every
// device's choice from the restored state afterwards, which is valid
// because a cached choice is always identical to a fresh recompute.
func (e *engine) replay(k int) {
	for j := 0; j < k; j++ {
		tp := e.prevPasses[j]
		e.passes = append(e.passes, tp)
		e.byDevice[tp.Device] = append(e.byDevice[tp.Device], tp)
		e.freeAt[tp.Device] = tp.End
		e.remaining--
		e.applyState(&tp, false)
	}
}

// priorities: forwards first — an F on the last stage gates the S passes of
// every device, so pumping the pipe outranks draining it (the in-flight cap,
// not the priority, is what bounds activation memory). S next (it gates the
// all-device C1 barrier), then T (gates C2 under Algorithm 1), then B, with
// split weight-gradient passes as pure bubble filler.
const (
	prioF = 0
	prioS = 1
	prioV = 1
	prioT = 2
	prioB = 3
	prioW = 4
)

// tieTol is the floating-point tolerance under which two candidate start
// times count as tied and the (priority, device) tie-break applies. Every
// fold uses it; near-ties arise when the same instant is reached by
// different summation orders.
const tieTol = 1e-15

// betterCandidate is the tolerance tie-break fold: a candidate replaces the
// current best when it starts tieTol-strictly earlier, or starts within
// tieTol and has lower priority, or ties on both and runs on a lower
// device. The scan oracle's cross-device fold calls it, and slotChoice's
// intra-device fold is it with the device tie-break degenerate. run's fold
// unrolls it with the same float expressions; the bit-identical
// Build/BuildScan guarantee rests on that copy never drifting from it.
func betterCandidate(start float64, prio, dev int, found bool, bestStart float64, bestPrio, bestDev int) bool {
	if !found {
		return true
	}
	return start < bestStart-tieTol ||
		(absDiff(start, bestStart) <= tieTol && (prio < bestPrio ||
			(prio == bestPrio && dev < bestDev)))
}

// absDiff is math.Abs(a-b) without the call, for the finite non-negative
// start times the engine compares.
func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}

// run is the event-driven dispatch loop over cached per-device choices. A
// commit invalidates only the devices whose dependencies it satisfied
// (marked dirty inside applyState), so re-enumeration costs O(dirty) per
// commit instead of the scan oracle's O(P) full recompute. Selection
// is a linear fold over the cached choices, bit-identical to the scan fold
// since a cached choice equals a fresh recompute. The fold stays O(P) per
// commit, which is cheap because every pipeline that sim builds has
// P <= 64: its layouts need Layers % stages == 0 or stages <= Layers, and
// the deepest model in the zoo has 64 layers.
//
// The fold is also resumed rather than restarted. Its state after devices
// 0..k-1 depends on their cached choices only, and between commits only
// the dirty devices' choices change. So the fold records its best device at
// every foldBlock-th device (foldBest), and the next fold restarts from the
// checkpoint of the block holding the lowest dirty device: every device
// before it would fold the same inputs again. The checkpoint's start and
// priority are read back from that device's unchanged cache.
func (e *engine) run() (*Timeline, error) {
	p := e.spec.P
	e.armDispatch(p)
	e.refreshes = 0
	e.foldVisits = 0
	for e.remaining > 0 {
		e.refreshes += len(e.dirtyList)
		lo := p - 1 // the lowest device whose cached choice may have changed
		for _, d := range e.dirtyList {
			e.refreshSlots(d, e.dirtyKind[d])
			e.dirtyKind[d] = 0
			slot, start, prio, ok := e.slotChoice(d)
			if !ok {
				// +Inf sentinel: the fold below rejects it with a single
				// compare (Inf is never < bestStart-tieTol, and Inf-Inf is
				// NaN, which fails every tolerance check).
				start = math.Inf(1)
			}
			e.choiceSlot[d], e.choiceStart[d], e.choicePrio[d] = slot, start, prio
			lo = min(lo, d)
		}
		e.dirtyList = e.dirtyList[:0]
		// The fold below is betterCandidate unrolled against the sentinel,
		// reusing its exact float expressions: accept iff
		// s < bestStart-tieTol, or absDiff(s, bestStart) <= tieTol with a
		// strictly lower priority (ascending d means a later device never
		// wins an equal-priority tie; the sentinel never wins because
		// Inf-Inf is NaN, which fails both checks).
		// lim caches bestStart-tieTol (the exact expression betterCandidate
		// compares against, recomputed only when bestStart moves), and the
		// single subtraction fast-rejects the common case: diff > tieTol
		// implies s > bestStart, where absDiff is that same s-bestStart.
		// For survivors, -diff <= tieTol is absDiff <= tieTol exactly (IEEE
		// negation is exact).
		starts, prios := e.choiceStart[:p], e.choicePrio[:p]
		first := lo - lo%foldBlock
		bestD := e.foldBest[first/foldBlock]
		bestStart := math.Inf(1)
		bestPrio := 0
		if bestD >= 0 {
			bestStart, bestPrio = starts[bestD], prios[bestD]
		}
		lim := bestStart - tieTol
		e.foldVisits += p - first
		for d := first; d < len(starts); d++ {
			if d%foldBlock == 0 {
				e.foldBest[d/foldBlock] = bestD
			}
			s := starts[d]
			diff := s - bestStart
			if diff > tieTol {
				continue
			}
			if s < lim {
				bestD, bestStart, bestPrio = d, s, prios[d]
				lim = bestStart - tieTol
			} else if -diff <= tieTol && prios[d] < bestPrio {
				bestD, bestStart, bestPrio = d, s, prios[d]
				lim = bestStart - tieTol
			}
		}
		if bestD < 0 {
			return nil, fmt.Errorf("schedule: no schedulable pass with %d remaining (dependency cycle?)", e.remaining)
		}
		e.commitSlot(bestD, e.choiceSlot[bestD], bestStart)
	}
	return e.finish(), nil
}

// runScan is the full-recompute loop: before every commit it re-enumerates
// every slot of every device and folds all P choices with betterCandidate.
// It shares refreshSlots, slotChoice and commitSlot with run but none of
// run's caches, so it ignores the dirty marks commitSlot leaves (every
// device stays marked from armDispatch, so the dirty list never grows).
func (e *engine) runScan() (*Timeline, error) {
	p := e.spec.P
	e.armDispatch(p)
	all := uint16(1)<<uint(e.nSlots) - 1
	for e.remaining > 0 {
		bestD, bestSlot, bestStart, bestPrio := -1, 0, 0.0, 0
		for d := 0; d < p; d++ {
			e.refreshSlots(d, all)
			slot, start, prio, ok := e.slotChoice(d)
			if ok && betterCandidate(start, prio, d, bestD >= 0, bestStart, bestPrio, bestD) {
				bestD, bestSlot, bestStart, bestPrio = d, slot, start, prio
			}
		}
		if bestD < 0 {
			return nil, fmt.Errorf("schedule: no schedulable pass with %d remaining (dependency cycle?)", e.remaining)
		}
		e.commitSlot(bestD, bestSlot, bestStart)
	}
	return e.finish(), nil
}

// armDispatch sizes the dispatch caches, fills the static per-slot tables
// (priority, duration) and marks every slot of every device dirty — both
// the scratch entry point and the post-replay recovery step (cached choices
// are recomputed from restored state, never replayed). Every device being
// dirty makes the first fold start at device 0, whatever foldBest holds.
func (e *engine) armDispatch(p int) {
	spec := e.spec
	ns := 3*spec.Chunks + 3
	nb := (p + foldBlock - 1) / foldBlock
	e.nSlots = ns
	nf, ni, nu := p*(2*ns+1), p*(ns+3)+nb+ns, 2*p
	if cap(e.dispF) < nf {
		e.dispF = make([]float64, nf)
	}
	if cap(e.dispI) < ni {
		e.dispI = make([]int, ni)
	}
	if cap(e.dispU) < nu {
		e.dispU = make([]uint16, nu)
	}
	fs, is, us := e.dispF[:nf], e.dispI[:ni], e.dispU[:nu]
	e.choiceStart, e.slotReady, e.slotDur = carve(&fs, p), carve(&fs, p*ns), carve(&fs, p*ns)
	e.choiceSlot, e.choicePrio, e.foldBest = carve(&is, p), carve(&is, p), carve(&is, nb)
	e.slotMicro, e.slotPrio = carve(&is, p*ns), carve(&is, ns)
	e.dirtyList = carve(&is, p)[:0]
	e.dirtyKind, e.liveSlots = carve(&us, p), carve(&us, p)
	nc := 3 * spec.Chunks
	e.wSlots = 0
	for c := 0; c < spec.Chunks; c++ {
		e.slotPrio[3*c] = prioF
		e.slotPrio[3*c+1] = prioB
		e.slotPrio[3*c+2] = prioW
		e.wSlots |= 4 << uint(3*c)
	}
	e.slotPrio[nc] = prioS
	e.slotPrio[nc+1] = prioT
	e.slotPrio[nc+2] = prioV
	inf := math.Inf(1)
	for d := 0; d < p; d++ {
		base := d * ns
		for k := 0; k < ns; k++ {
			e.slotReady[base+k] = inf
		}
		for c := 0; c < spec.Chunks; c++ {
			st := spec.StageOf(d, c)
			e.slotDur[base+3*c] = e.stageF[st]
			e.slotDur[base+3*c+1] = e.stageB[st]
			e.slotDur[base+3*c+2] = e.stageW[st]
		}
		if v := spec.Vocab; v != nil {
			e.slotDur[base+nc] = v.SDur
			e.slotDur[base+nc+1] = v.TDur
		}
		if iv := spec.Interlaced; iv != nil {
			e.slotDur[base+nc+2] = iv.VDur + iv.SyncTime
		}
		e.dirtyKind[d] = 0
		e.liveSlots[d] = 0
	}
	e.foldBest[0] = -1
	all := uint16(1)<<uint(ns) - 1
	for d := 0; d < p; d++ {
		e.markKind(d, all)
	}
}

func (e *engine) finish() *Timeline {
	mk := 0.0
	for d := range e.byDevice {
		if n := len(e.byDevice[d]); n > 0 {
			if end := e.byDevice[d][n-1].End; end > mk {
				mk = end
			}
		}
	}
	e.timeline = Timeline{Spec: e.spec, Passes: e.passes, ByDevice: e.byDevice, Makespan: mk, arena: true}
	e.havePrev = true
	return &e.timeline
}

// markKind queues slots of device d (a bitmask, bit k = slot k, never
// empty) for re-enumeration before the next dispatch fold.
func (e *engine) markKind(d int, mask uint16) {
	if e.dirtyKind[d] == 0 {
		e.dirtyList = append(e.dirtyList, d)
	}
	e.dirtyKind[d] |= mask
}

// setSlot stores the readiness of device d's slot k (at index base+k) and
// keeps the device's live mask in step: a slot is live iff its readiness is
// finite.
func (e *engine) setSlot(d, base, k int, ready float64) {
	e.slotReady[base+k] = ready
	if ready < math.Inf(1) {
		e.liveSlots[d] |= 1 << uint(k)
	} else {
		e.liveSlots[d] &^= 1 << uint(k)
	}
}

// refreshSlots re-enumerates the masked candidate slots of device d from
// the engine's readiness state. It is the one statement of each kind's
// dispatch rule (cursor, in-flight cap, dataflow and barrier readiness);
// Timeline.Validate checks the dependency rules independently. A kind with
// no schedulable pass parks its slot at +Inf.
func (e *engine) refreshSlots(d int, mask uint16) {
	spec := e.spec
	M := spec.M
	ns := e.nSlots
	base := d * ns
	cbase := d * spec.Chunks
	inf := math.Inf(1)
	for c := 0; c < spec.Chunks; c++ {
		if mask&(7<<uint(3*c)) == 0 {
			continue
		}
		st := spec.StageOf(d, c)
		row := st * M

		// Forward.
		if mask&(1<<uint(3*c)) != 0 {
			ready := inf
			if i := e.nextF[cbase+c]; i < M && e.inFlight[cbase+c] < e.capIF[cbase+c] {
				if st == 0 {
					ready = 0
				} else if prev := e.fEnd[row-M+i]; prev != unscheduled {
					ready = prev + spec.SendTime
				}
				e.slotMicro[base+3*c] = i
			}
			e.setSlot(d, base, 3*c, ready)
		}

		// Backward.
		if mask&(1<<uint(3*c+1)) != 0 {
			ready := inf
			if i := e.nextB[cbase+c]; i < M {
				if own := e.fEnd[row+i]; own != unscheduled {
					r := own
					ok := true
					if st == e.last {
						if br, okB := e.lastStageBackwardReady(i); okB {
							if br > r {
								r = br
							}
						} else {
							ok = false
						}
					} else if next := e.bEnd[row+M+i]; next != unscheduled {
						if nr := next + spec.SendTime; nr > r {
							r = nr
						}
					} else {
						ok = false
					}
					if ok {
						ready = r
						e.slotMicro[base+3*c+1] = i
					}
				}
			}
			e.setSlot(d, base, 3*c+1, ready)
		}

		// Weight gradient (split backward).
		if mask&(1<<uint(3*c+2)) != 0 {
			ready := inf
			if e.stageW[st] > 0 {
				if i := e.nextW[cbase+c]; i < M {
					if b := e.bEnd[row+i]; b != unscheduled {
						ready = b
						e.slotMicro[base+3*c+2] = i
					}
				}
			}
			e.setSlot(d, base, 3*c+2, ready)
		}
	}

	nc := 3 * spec.Chunks
	if mask>>uint(nc) == 0 {
		return
	}
	lastRow := e.last * M
	if v := spec.Vocab; v != nil {
		if mask&(1<<uint(nc)) != 0 {
			ready := inf
			if i := e.nextS[d]; i < M {
				if f := e.fEnd[lastRow+i]; f != unscheduled {
					ready = f + v.BcastTime
					e.slotMicro[base+nc] = i
				}
			}
			e.setSlot(d, base, nc, ready)
		}
		if mask&(1<<uint(nc+1)) != 0 {
			ready := inf
			if i := e.nextT[d]; i < M {
				if c1 := e.c1End[i]; c1 != unscheduled {
					ready = c1
					e.slotMicro[base+nc+1] = i
				}
			}
			e.setSlot(d, base, nc+1, ready)
		}
	}
	if iv := spec.Interlaced; iv != nil {
		if mask&(1<<uint(nc+2)) != 0 {
			ready := inf
			if i := e.nextV[d]; i < M {
				if f := e.fEnd[lastRow+i]; f != unscheduled {
					ready = f
					e.slotMicro[base+nc+2] = i
				}
			}
			e.setSlot(d, base, nc+2, ready)
		}
	}
}

// slotChoice picks device d's preferred next pass: the earliest-starting
// live slot under the tolerance fold, with static pass priorities on ties.
// It folds in slot index order (per chunk F, B, W; then S, T, V), which
// resolves exact ties before the tolerance tie-break sees them. Slots parked
// at +Inf never enter a fold, so it walks the live mask only.
// Weight-gradient passes are pure filler (zero-bubble style) and are
// admitted only when they finish before any other live slot could start.
// (An alternation variant — prefer draining right after a forward — was
// evaluated and regressed every vocabulary schedule: with the in-flight cap
// already enforcing the one-forward-one-backward slot budget, deferring
// forwards starves the last stage whose F gates all S passes.)
func (e *engine) slotChoice(d int) (int, float64, int, bool) {
	live := e.liveSlots[d]
	ns := e.nSlots
	base := d * ns
	ready := e.slotReady[base : base+ns]
	free := e.freeAt[d]
	// W admission bound, needed only when a W slot is live: the minimum
	// readiness among live non-W slots (max-with-free distributes over min).
	haveOther := false
	earliestOther := 0.0
	if other := live &^ e.wSlots; live&e.wSlots != 0 && other != 0 {
		minOther := math.Inf(1)
		for m := other; m != 0; m &= m - 1 {
			if r := ready[bits.TrailingZeros16(m)]; r < minOther {
				minOther = r
			}
		}
		haveOther = true
		earliestOther = minOther
		if free > earliestOther {
			earliestOther = free
		}
	}
	bestSlot := -1
	bestStart := 0.0
	bestPrio := 0
	for m := live; m != 0; m &= m - 1 {
		k := bits.TrailingZeros16(m)
		r := ready[k]
		start := free
		if r > start {
			start = r
		}
		prio := e.slotPrio[k]
		if prio == prioW && haveOther && start+e.slotDur[base+k] > earliestOther+tieTol {
			continue
		}
		if bestSlot < 0 || start < bestStart-tieTol ||
			(absDiff(start, bestStart) <= tieTol && prio < bestPrio) {
			bestSlot, bestStart, bestPrio = k, start, prio
		}
	}
	return bestSlot, bestStart, bestPrio, bestSlot >= 0
}

// commitSlot commits device d's cached slot choice at start, reconstructing
// the pass identity from the slot layout.
func (e *engine) commitSlot(d, slot int, start float64) {
	base := d * e.nSlots
	nc := e.nSlots - 3
	var pt PassType
	chunk := 0
	if slot < nc {
		chunk = slot / 3
		switch slot % 3 {
		case 0:
			pt = PassF
		case 1:
			pt = PassB
		default:
			pt = PassW
		}
	} else {
		switch slot - nc {
		case 0:
			pt = PassS
		case 1:
			pt = PassT
		default:
			pt = PassV
		}
	}
	end := start + e.slotDur[base+slot]
	e.freeAt[d] = end
	tp := TimedPass{Pass: Pass{pt, d, chunk, e.slotMicro[base+slot]}, Start: start, End: end}
	e.passes = append(e.passes, tp)
	e.byDevice[d] = append(e.byDevice[d], tp)
	e.remaining--
	e.applyState(&tp, true)
}

// lastStageBackwardReady returns the extra readiness constraint on the last
// transformer stage's backward of microbatch i (§5.1).
func (e *engine) lastStageBackwardReady(i int) (float64, bool) {
	spec := e.spec
	switch {
	case spec.Vocab != nil && spec.Vocab.Barriers == 2:
		// Algorithm 1: wait for barrier C2 after all T passes.
		if e.c2End[i] == unscheduled {
			return 0, false
		}
		return e.c2End[i], true
	case spec.Vocab != nil:
		// Algorithm 2: wait for C1 plus the ∇X reduce that runs inside it.
		if e.c1End[i] == unscheduled {
			return 0, false
		}
		return e.c1End[i] + spec.Vocab.C2Time, true
	case spec.Interlaced != nil:
		if e.vBarrier[i] == unscheduled {
			return 0, false
		}
		return e.vBarrier[i], true
	default:
		return 0, true
	}
}

// applyState folds one committed pass into the engine's readiness state.
// It is shared by commitSlot (both dispatch loops) and prefix replay; live
// (commitSlot only) enables the exact (device, kind) invalidation, which
// run consumes and the scan oracle ignores. Every cross-device readiness input is
// write-once and each per-kind cursor advances in microbatch order, so the
// waiter scans below (nextS[dd] == i, etc.) are exhaustive: a device whose
// cursor already passed i saw this input's dependency satisfied earlier,
// and one whose cursor hasn't reached i cannot have enumerated a candidate
// that reads it. The committing device always re-enters the dispatch fold
// (its own kind bits below are never empty), which also folds its changed
// freeAt into every cached slot.
func (e *engine) applyState(tp *TimedPass, live bool) {
	spec := e.spec
	M := spec.M
	d, i, end := tp.Device, tp.Micro, tp.End
	nc := 3 * spec.Chunks
	switch tp.Type {
	case PassF:
		st := spec.StageOf(d, tp.Chunk)
		e.fEnd[st*M+i] = end
		e.nextF[d*spec.Chunks+tp.Chunk]++
		e.inFlight[d*spec.Chunks+tp.Chunk]++
		if live {
			// Own F slot (cursor and in-flight cap) and own B slot (B of
			// microbatch i needs this F).
			e.markKind(d, 3<<uint(3*tp.Chunk))
			if st < e.last {
				// Downstream forward of the same microbatch.
				e.markKind(spec.DeviceOf(st+1), 1<<uint(3*spec.ChunkOf(st+1)))
			} else {
				// The last stage's F gates exactly the devices whose S (or V)
				// cursor is waiting on microbatch i.
				if spec.Vocab != nil {
					for dd := 0; dd < spec.P; dd++ {
						if e.nextS[dd] == i {
							e.markKind(dd, 1<<uint(nc))
						}
					}
				}
				if spec.Interlaced != nil {
					for dd := 0; dd < spec.P; dd++ {
						if e.nextV[dd] == i {
							e.markKind(dd, 1<<uint(nc+2))
						}
					}
				}
			}
		}
	case PassB:
		st := spec.StageOf(d, tp.Chunk)
		e.bEnd[st*M+i] = end
		e.nextB[d*spec.Chunks+tp.Chunk]++
		e.inFlight[d*spec.Chunks+tp.Chunk]--
		if live {
			// Own B (cursor), F (in-flight slot freed) and W (this B's
			// gradient became available) slots.
			e.markKind(d, 7<<uint(3*tp.Chunk))
			if st > 0 {
				// Upstream backward of the same microbatch.
				e.markKind(spec.DeviceOf(st-1), 2<<uint(3*spec.ChunkOf(st-1)))
			}
		}
	case PassW:
		e.nextW[d*spec.Chunks+tp.Chunk]++
		if live {
			e.markKind(d, 4<<uint(3*tp.Chunk))
		}
	case PassS:
		e.sEnd[d*M+i] = end
		e.nextS[d]++
		e.sRemaining[i]--
		if live {
			e.markKind(d, 1<<uint(nc))
		}
		if e.sRemaining[i] == 0 {
			e.c1End[i] = e.latestEnd(e.sEnd, i) + spec.Vocab.C1Time
			if live {
				// C1 gates the T passes waiting on microbatch i and, under
				// Algorithm 2, the last stage's backward.
				for dd := 0; dd < spec.P; dd++ {
					if e.nextT[dd] == i {
						e.markKind(dd, 1<<uint(nc+1))
					}
				}
				if spec.Vocab.Barriers == 1 {
					e.markKind(e.lastDev, 2<<uint(3*(spec.Chunks-1)))
				}
			}
		}
	case PassT:
		e.tEnd[d*M+i] = end
		e.nextT[d]++
		e.tRemaining[i]--
		if live {
			e.markKind(d, 1<<uint(nc+1))
		}
		if e.tRemaining[i] == 0 && spec.Vocab.Barriers == 2 {
			e.c2End[i] = e.latestEnd(e.tEnd, i) + spec.Vocab.C2Time
			if live {
				// C2 gates the last stage's backward (Algorithm 1).
				e.markKind(e.lastDev, 2<<uint(3*(spec.Chunks-1)))
			}
		}
	case PassV:
		e.vEnd[d*M+i] = end
		e.nextV[d]++
		e.vRemaining[i]--
		if live {
			e.markKind(d, 1<<uint(nc+2))
		}
		if e.vRemaining[i] == 0 {
			e.vBarrier[i] = e.latestEnd(e.vEnd, i)
			if live {
				// The interlaced barrier gates the last stage's backward.
				e.markKind(e.lastDev, 2<<uint(3*(spec.Chunks-1)))
			}
		}
	}
}

// latestEnd returns the latest end of microbatch i's passes over every
// device, read from a [device*M+micro] table (sEnd, tEnd or vEnd): the
// instant an all-device barrier on them clears.
func (e *engine) latestEnd(ends []float64, i int) float64 {
	M := e.spec.M
	latest := 0.0
	for d := 0; d < e.spec.P; d++ {
		if t := ends[d*M+i]; t > latest {
			latest = t
		}
	}
	return latest
}
