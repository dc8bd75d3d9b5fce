package perf

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sync"
	"time"

	"vocabpipe/internal/cache"
	"vocabpipe/internal/cluster"
	"vocabpipe/internal/costmodel"
	"vocabpipe/internal/experiments"
	"vocabpipe/internal/load"
	"vocabpipe/internal/report"
	"vocabpipe/internal/schedule"
	"vocabpipe/internal/server"
	"vocabpipe/internal/sim"
	"vocabpipe/internal/sweep"
	"vocabpipe/internal/tune"
)

// Suite returns the paper-scale benchmark cases the BENCH reports track:
//
//   - engine/build/<cell>: event-driven schedule builds for every 1F1B table
//     config and the largest V-Half config, at the heaviest sweep point
//     (seq 4096, 256k vocabulary);
//   - engine/scan/<cell>: the scan-based reference engine on the largest
//     1F1B config, so every BENCH file also records the build/scan ratio;
//   - sweep/table5 and sweep/table6: full paper grids (the same constructors
//     vpbench and vpserve use) through the concurrent sweep engine, measured
//     as cells/sec;
//   - server/sweep-cached: the vpserve HTTP serving path on a warmed cache
//     (one real loopback request per op), measured as req/s with the cache
//     hit rate attached;
//   - server/metrics-overhead: a full /metrics scrape per op against a
//     seeded registry — the cost of the observability spine's most
//     expensive operation;
//   - server/open-loop-slo: one op is a full open-loop soak (internal/load's
//     arrival-rate engine, 1000 req/s for 300ms) against a warmed cache-hit
//     URL, gated by the declarative SLO thresholds (p99<50ms,
//     error_rate<0.1%, dropped_rate<1%) — the run panics on any breach, so
//     a BENCH report existing at all certifies the serving path held its
//     SLO under rate-driven load; req/s records the delivered goodput;
//   - cluster/sweep-sharded: the coordinator fan-out path — one op shards a
//     grid across two loopback worker servers and merges the records (the
//     workers' own shard caches are warm after the first op, so this
//     isolates dispatch + transport + merge overhead), measured as req/s;
//   - cluster/sweep-affine: the cache-affinity dividend — repeated sweeps of
//     the same grid through consistent-hash placement, with cache_hit_pct
//     reporting the aggregate hit rate the workers' shard caches saw; a
//     placement that stopped routing repeats to the same member shows up
//     here as a hit-rate collapse before it shows up as latency;
//   - tune/beam-vs-exhaustive: the auto-tuner's beam search plus its
//     exhaustive oracle on the quick scenario, measured as search cells/sec
//     with the beam's result quality (quality_pct) attached.
func Suite() []Case {
	var cases []Case

	heaviest := func(cfg costmodel.Config) costmodel.Config {
		return cfg.WithSeq(4096).WithVocab(256 * 1024)
	}

	for _, cfg := range costmodel.OneF1BConfigs() {
		cases = append(cases, engineCase("engine/build", heaviest(cfg), sim.Vocab1, schedule.Build))
	}
	largest := heaviest(costmodel.OneF1BConfigs()[2]) // 21B, 32 devices
	cases = append(cases, engineCase("engine/scan", largest, sim.Vocab1, schedule.BuildScan))

	vhalf := heaviest(costmodel.VHalfConfigs()[2]) // 30B, 32 devices
	cases = append(cases, engineCase("engine/build", vhalf, sim.VHalfVocab1, schedule.Build))

	cases = append(cases,
		gridCase("sweep/table5", experiments.Table5Grid()),
		incrementalCase("sweep/table5-incremental", experiments.Table5Grid()),
		gridCase("sweep/table6", experiments.Table6Grid()),
		serverCase(),
		openLoopCase(),
		metricsCase(),
		clusterCase("cluster/sweep-sharded", "model=4B;method=1f1b;vocab=32k,64k;micro=16", 16, false),
		clusterCase("cluster/sweep-affine", "model=4B,10B;method=1f1b;vocab=32k,64k;micro=32", 64, true),
		tuneCase(),
	)
	return cases
}

// metricsCase measures a /metrics scrape end to end on a server that has
// seen traffic: a loopback GET per op rendering every registered family.
// Together with server/sweep-cached it bounds the observability spine's
// overhead — the scrape itself is the most expensive metrics operation (the
// per-request middleware cost is two atomic bumps and is already inside
// server/sweep-cached's numbers).
func metricsCase() Case {
	var target string
	lb := &loopback{n: 1, opt: server.Options{CacheSize: 16, Parallel: 1}, setup: func(urls []string) {
		// Seed a little route/cache/label state so the scrape renders a
		// realistic family set, not an all-zero registry.
		get(urls[0] + "/api/v1/sweep?grid=" + url.QueryEscape("model=4B;method=baseline;vocab=32k;micro=16"))
		get(urls[0] + "/healthz")
		target = urls[0] + "/metrics"
	}}
	return Case{
		Name: "server/metrics-overhead",
		Run: func(n int) {
			lb.start()
			for i := 0; i < n; i++ {
				get(target)
			}
		},
		Finish: func(bc *report.BenchCase) {
			bc.ReqPerSec = opsPerSec(bc)
			lb.close()
		},
	}
}

// clusterCase measures the distributed fan-out end to end: two worker
// vpserve instances on loopback (with cacheSize-entry result caches) and a
// dispatcher sharding spec across them and merging the result; ns/op
// inverts into req/s at concurrency 1. A case falling back to local
// evaluation panics the run. It backs two cases:
//
//   - cluster/sweep-sharded: a 10-cell grid. The first op warms the
//     workers' shard caches, so steady-state ops measure the coordinator's
//     dispatch, HTTP transport and merge — the per-request cost distributed
//     mode adds on top of the sweep itself.
//   - cluster/sweep-affine (hitRate set): what consistent-hash placement
//     buys. Placement is by the shard sub-grid's canonical key — the same
//     identity the workers' result caches use — so after the cold first op
//     every shard should land on the member that already holds it;
//     cache_hit_pct reports the aggregate worker-side hit rate. A placement
//     regression that scatters repeats across members collapses this number
//     even when req/s barely moves. CacheSize 64 keeps every sweep shard
//     resident even if the ring lands all of them on one member, so the
//     hit rate measures placement, not eviction.
func clusterCase(name, spec string, cacheSize int, hitRate bool) Case {
	g, err := sweep.ParseGrid(spec)
	if err != nil {
		panic(fmt.Sprintf("perf: %s grid: %v", name, err))
	}
	cells := len(g.Expand())
	var disp *cluster.Dispatcher
	lb := &loopback{n: 2, opt: server.Options{CacheSize: cacheSize, Parallel: 1}, setup: func(urls []string) {
		disp = cluster.New(cluster.Options{Workers: urls, ShardsPerWorker: 2, LocalParallel: 1})
	}}
	return Case{
		Name:  name,
		Cells: cells,
		Run: func(n int) {
			lb.start()
			for i := 0; i < n; i++ {
				recs, err := disp.Records(context.Background(), g)
				if err != nil {
					panic(fmt.Sprintf("perf: %s: %v", name, err))
				}
				if len(recs) != cells {
					panic(fmt.Sprintf("perf: %s: %d records for %d cells", name, len(recs), cells))
				}
			}
		},
		Finish: func(bc *report.BenchCase) {
			bc.ReqPerSec = opsPerSec(bc)
			if hitRate {
				bc.CacheHitPct = lb.hitRatePct()
			}
			if st := disp.Stats(); st.Fallbacks > 0 {
				panic(fmt.Sprintf("perf: %s fell back to local evaluation: %+v", name, st))
			}
			lb.close()
		},
	}
}

// tuneCase measures the auto-tuner end to end: one op runs the beam search
// plus the exhaustive oracle on the quick named scenario, reporting combined
// search throughput as cells/sec and the beam's result quality (best score
// relative to the oracle's optimum) as quality_pct — so a BENCH diff catches
// both a slower search and a search that silently stopped finding the
// optimum.
func tuneCase() Case {
	spec, ok := experiments.TuneSpec("4b-quick")
	if !ok {
		panic("perf: tune scenario 4b-quick missing from the registry")
	}
	var cellsPerOp int
	var quality float64
	return Case{
		Name: "tune/beam-vs-exhaustive",
		Run: func(n int) {
			for i := 0; i < n; i++ {
				beam, err := tune.Search(context.Background(), spec, tune.StrategyBeam, tune.Options{})
				if err != nil {
					panic(fmt.Sprintf("perf: tune beam: %v", err))
				}
				oracle, err := tune.Search(context.Background(), spec, tune.StrategyExhaustive, tune.Options{})
				if err != nil {
					panic(fmt.Sprintf("perf: tune exhaustive: %v", err))
				}
				cellsPerOp = beam.Evaluated + oracle.Evaluated
				quality = tune.QualityRatio(beam, oracle)
			}
		},
		Finish: func(bc *report.BenchCase) {
			bc.Cells = cellsPerOp
			if bc.NsPerOp > 0 {
				bc.CellsPerSec = float64(cellsPerOp) * 1e9 / bc.NsPerOp
			}
			// QualityRatio is NaN when a search found nothing feasible; JSON
			// cannot carry NaN, so leave the field absent rather than kill
			// the whole BENCH report.
			if !math.IsNaN(quality) {
				bc.QualityPct = 100 * quality
			}
		},
	}
}

// engineCase times one schedule construction through the given builder.
func engineCase(prefix string, cfg costmodel.Config, m sim.Method,
	build func(*schedule.Spec) (*schedule.Timeline, error)) Case {
	spec, err := sim.BuildSpec(cfg, m)
	if err != nil {
		// Zoo configs are static; a failure here is a programming error.
		panic(fmt.Sprintf("perf: %s/%s: %v", cfg.Name, m, err))
	}
	return Case{
		Name: fmt.Sprintf("%s/%s-seq%d-V%dk-%s", prefix, cfg.Name, cfg.Seq, cfg.Vocab/1024, m),
		Run: func(n int) {
			for i := 0; i < n; i++ {
				if _, err := build(spec); err != nil {
					panic(fmt.Sprintf("perf: %s: %v", spec.Describe(), err))
				}
			}
		},
	}
}

// cachedGrid is the small grid the single-server cases query on a warmed
// cache.
const cachedGrid = "model=4B;method=baseline,vocab-1;vocab=32k;micro=16"

// serverCase measures the vpserve serving path end to end: a loopback HTTP
// server, a small grid, one GET per op. The warmup request primes the result
// cache, so the measured ops are the steady-state cache-hit path a repeated
// production query sees; ns/op inverts into req/s at concurrency 1.
func serverCase() Case {
	var target string
	lb := &loopback{n: 1, opt: server.Options{CacheSize: 16, Parallel: 1}, setup: func(urls []string) {
		target = urls[0] + "/api/v1/sweep?grid=" + url.QueryEscape(cachedGrid)
	}}
	return Case{
		Name: "server/sweep-cached",
		Run: func(n int) {
			lb.start()
			for i := 0; i < n; i++ {
				get(target)
			}
		},
		Finish: func(bc *report.BenchCase) {
			bc.ReqPerSec = opsPerSec(bc)
			bc.CacheHitPct = lb.hitRatePct()
			lb.close()
		},
	}
}

// openLoopCase measures the serving path under the open-loop arrival-rate
// engine with its SLO gates armed: one op schedules 1000 req/s for 300ms
// against a warmed cache-hit URL through a bounded VU pool and panics unless
// every threshold holds on the final ledger — so the BENCH number is not
// just a throughput but a certified "the SLO held at this offered load".
// ReqPerSec reports the last op's delivered goodput (OK responses per
// second of wall time), which under a passing run tracks the offered rate.
func openLoopCase() Case {
	sc, err := load.Preset("soak", 1000, 0, 300*time.Millisecond)
	if err != nil {
		panic(fmt.Sprintf("perf: open-loop case scenario: %v", err))
	}
	thresholds, err := load.ParseThresholds("p99<50ms,error_rate<0.1%,dropped_rate<1%")
	if err != nil {
		panic(fmt.Sprintf("perf: open-loop case thresholds: %v", err))
	}
	var (
		target string
		okRPS  float64
	)
	lb := &loopback{n: 1, opt: server.Options{CacheSize: 16, Parallel: 1}, setup: func(urls []string) {
		target = urls[0] + "/api/v1/sweep?grid=" + url.QueryEscape(cachedGrid)
		// Warm the key: the measured runs exercise the cache-hit serving
		// path at the scheduled arrival rate.
		get(target)
	}}
	return Case{
		Name: "server/open-loop-slo",
		Run: func(n int) {
			lb.start()
			for i := 0; i < n; i++ {
				rep, err := load.Run(context.Background(), target, load.Options{
					Scenario:   sc,
					VUs:        64,
					Seed:       1,
					Thresholds: thresholds,
				})
				if err != nil {
					panic(fmt.Sprintf("perf: open-loop case: %v", err))
				}
				if rep.Errors > 0 || !rep.ThresholdsOK {
					panic(fmt.Sprintf("perf: open-loop case breached its SLO: %s", rep.Summary()))
				}
				okRPS = rep.OKRPS
			}
		},
		Finish: func(bc *report.BenchCase) {
			bc.ReqPerSec = okRPS
			bc.CacheHitPct = lb.hitRatePct()
			lb.close()
		},
	}
}

// loopback is the serving cases' fixture: n vpserve instances on loopback
// listeners. They boot on the first Run — listing cases must have no side
// effects, not even job-worker goroutines — after which setup receives
// their base URLs once; Finish reads them and closes them.
type loopback struct {
	n       int
	opt     server.Options
	setup   func(urls []string)
	once    sync.Once
	servers []*server.Server
	stops   []func()
}

// start boots the servers and runs setup, once.
func (lb *loopback) start() {
	lb.once.Do(func() {
		var urls []string
		for i := 0; i < lb.n; i++ {
			srv := server.New(lb.opt)
			baseURL, stop, err := server.StartLocal(srv)
			if err != nil {
				panic(fmt.Sprintf("perf: loopback server: %v", err))
			}
			lb.servers = append(lb.servers, srv)
			lb.stops = append(lb.stops, stop)
			urls = append(urls, baseURL)
		}
		lb.setup(urls)
	})
}

// hitRatePct is the result-cache hit rate summed over the servers.
func (lb *loopback) hitRatePct() float64 {
	var sum cache.Stats
	for _, srv := range lb.servers {
		st := srv.CacheStats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Deduped += st.Deduped
	}
	return sum.HitRatePct()
}

// close stops the listeners and releases each server's job workers.
func (lb *loopback) close() {
	for _, stop := range lb.stops {
		stop()
	}
	for _, srv := range lb.servers {
		srv.Close(context.Background())
	}
}

// get issues one GET and drains the body, panicking unless it answers 200.
func get(target string) {
	resp, err := http.Get(target)
	if err != nil {
		panic(fmt.Sprintf("perf: GET %s: %v", target, err))
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("perf: GET %s: HTTP %d", target, resp.StatusCode))
	}
}

// opsPerSec inverts ns/op into ops per second (req/s at concurrency 1).
func opsPerSec(bc *report.BenchCase) float64 {
	if bc.NsPerOp <= 0 {
		return 0
	}
	return 1e9 / bc.NsPerOp
}

// incrementalCase measures the single-threaded floor of the warm-engine
// path: one shared sim.Runner evaluates every cell of the grid in expansion
// order, so the number isolates engine reuse (arena recycling + prefix
// replay) from the worker pool's parallelism that sweep/table5 adds on top.
func incrementalCase(name string, g *sweep.Grid) Case {
	cells := g.Expand()
	return Case{
		Name:  name,
		Cells: len(cells),
		Run: func(n int) {
			runner := sim.NewRunner()
			for i := 0; i < n; i++ {
				for _, c := range cells {
					if _, err := runner.Run(c.Config, c.Method); err != nil {
						panic(fmt.Sprintf("perf: %s: cell %q: %v", name, c.Label, err))
					}
				}
			}
		},
	}
}

// gridCase times one full sweep grid and reports cells/sec.
func gridCase(name string, g *sweep.Grid) Case {
	cells := len(g.Expand())
	return Case{
		Name:  name,
		Cells: cells,
		Run: func(n int) {
			for i := 0; i < n; i++ {
				res := sweep.Run(g, sweep.Options{})
				if errs := res.Errs(); len(errs) > 0 {
					panic(fmt.Sprintf("perf: %s: %v", name, errs[0]))
				}
			}
		},
	}
}
