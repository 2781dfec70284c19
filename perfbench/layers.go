package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"obdrel"
	"obdrel/internal/grid"
	"obdrel/internal/obs"
	"obdrel/internal/pipeline"
	"obdrel/internal/tablefile"
)

// substrateStages are the pipeline stages below the analyzer; a build
// of any of them is substrate work.
var substrateStages = []string{"floorplan", "powermap", "thermal", "covariance", "pca", "blod", "weibull", "chip"}

// tally is a sum of daemon-side counters: /metrics series, allocation
// and GC counts, and CPU time.
type tally struct {
	m                 map[string]float64
	cpuMS, alloc, gcs float64
}

// snap sums the current counters of the given daemons.
func snap(ds ...*daemon) tally {
	t := tally{m: map[string]float64{}}
	for _, d := range ds {
		m, err := d.metrics()
		if err != nil {
			fmt.Fprintln(os.Stderr, "scrape:", err)
		}
		for k, v := range m {
			t.m[k] += v
		}
		a, g := d.memStats()
		t.alloc += a
		t.gcs += g
		t.cpuMS += d.cpuMS()
	}
	return t
}

func (t tally) minus(b tally) tally {
	out := tally{m: map[string]float64{}, cpuMS: t.cpuMS - b.cpuMS, alloc: t.alloc - b.alloc, gcs: t.gcs - b.gcs}
	for k, v := range t.m {
		out.m[k] = v - b.m[k]
	}
	return out
}

func (t *tally) add(b tally) {
	if t.m == nil {
		t.m = map[string]float64{}
	}
	for k, v := range b.m {
		t.m[k] += v
	}
	t.cpuMS += b.cpuMS
	t.alloc += b.alloc
	t.gcs += b.gcs
}

// stageSum sums a per-stage counter family over the substrate stages.
func (t tally) stageSum(family string) float64 {
	s := 0.0
	for _, st := range substrateStages {
		s += t.m[fmt.Sprintf("%s{stage=%q}", family, st)]
	}
	return s
}

// tracedTally is what a traced phase collects: daemon counter deltas,
// the start-up times of the daemons that served it, and the
// client-side and server-side time of every unary request, the latter
// from the span tree the request asked for with ?explain=1.
type tracedTally struct {
	tally
	readyMS            []float64
	mu                 sync.Mutex
	n                  int
	clientMS, serverMS float64
}

// get is one unary request; on a nil tally (an untraced phase) it is
// a plain getJSON.
func (t *tracedTally) get(c *http.Client, base, path string, q url.Values) (map[string]any, error) {
	if t == nil {
		return getJSON(c, base, path, q)
	}
	q2 := url.Values{}
	for k, v := range q {
		q2[k] = v
	}
	q2.Set("explain", "1")
	t0 := time.Now()
	a, err := getJSON(c, base, path, q2)
	d := ms(time.Since(t0))
	if err != nil {
		return nil, err
	}
	tr, _ := a["trace"].(map[string]any)
	dur, ok := tr["dur_us"].(float64)
	if !ok {
		return nil, fmt.Errorf("%s?explain=1 answered without a span tree", path)
	}
	delete(a, "trace")
	t.mu.Lock()
	t.n++
	t.clientMS += d
	t.serverMS += dur / 1000
	t.mu.Unlock()
	return a, nil
}

// routes whose server-side time is reported one by one.
var routes = []string{"lifetime", "failureprob", "batch", "blocks"}

// daemonLayers turns a traced phase's tally into per-layer metrics.
func (e *env) daemonLayers(t *tracedTally, ops int) {
	per := func(v float64) float64 { return v / float64(ops) }
	e.set("pipeline.builds", per(t.stageSum("obdreld_stage_builds_total")), "count/op")
	e.set("pipeline.mem_hits", per(t.stageSum("obdreld_stage_cache_hits_total")), "count/op")
	e.set("pipeline.disk_hits", per(t.stageSum("obdreld_artifact_disk_hits_total")), "count/op")
	e.set("pipeline.peer_hits", per(t.stageSum("obdreld_artifact_peer_hits_total")+
		t.m["obdreld_artifact_rebalance_fetched_total"]), "count/op")
	e.set("pipeline.spills", per(t.stageSum("obdreld_artifact_spills_total")), "count/op")
	e.set("tablefile.loads", per(t.m["obdreld_hybrid_table_loads_total"]), "count/op")
	var sum, count float64
	for _, r := range routes {
		s := t.m[fmt.Sprintf("obdreld_request_seconds_sum{route=%q}", "/v1/"+r)]
		c := t.m[fmt.Sprintf("obdreld_request_seconds_count{route=%q}", "/v1/"+r)]
		sum, count = sum+s, count+c
		e.set("server.request_ms."+r, 1000*s/math.Max(c, 1), "ms")
	}
	sum += t.m[`obdreld_request_seconds_sum{route="/v1/maxvdd"}`]
	count += t.m[`obdreld_request_seconds_count{route="/v1/maxvdd"}`]
	e.set("server.request_ms", 1000*sum/math.Max(count, 1), "ms")
	e.set("server.client_overhead_ms", (t.clientMS-t.serverMS)/math.Max(float64(t.n), 1), "ms")
	bsec := t.m[`obdreld_request_seconds_sum{route="/v1/batch"}`]
	breq := math.Max(t.m["obdreld_batch_requests_total"], 1)
	items := t.m[`obdreld_batch_items_total{status="ok"}`]
	e.set("batch.items_per_s", items/math.Max(bsec, 1e-9), "1/s")
	e.set("batch.groups", t.m["obdreld_batch_groups_total"]/breq, "count")
	e.set("batch.shared_evals", t.m["obdreld_batch_shared_evals_total"]/breq, "count")
	e.set("go.alloc_kb_per_op", per(t.alloc/1024), "KB")
	e.set("go.gc_cycles_per_op", per(t.gcs), "count")
	e.set("proc.cpu_ms_per_op", per(t.cpuMS), "ms")
	e.set("server.ready_ms", median(t.readyMS), "ms")
}

// libraryLayers times calls into the library's layers in this process,
// on a design-space point drawn from the run's seed: a cold analyzer
// build (with its PCA, thermal solve and BLOD stages) that spills to a
// disk tier, the same analyzer loaded back from disk and filled from a
// peer tier, st_fast and hybrid queries, the hybrid table build and
// file open, and a warm MaxVDD search.
func libraryLayers(e *env, workload string) error {
	h := fnv.New64a()
	h.Write([]byte(workload))
	rng := rand.New(rand.NewSource(e.seed ^ int64(h.Sum64())))
	d := obdrel.Benchmarks()[rng.Intn(len(designs))]
	dir := filepath.Join(e.work, "lib-art")
	tdir := filepath.Join(e.work, "lib-tab")
	for _, p := range []string{dir, tdir} {
		if err := os.MkdirAll(p, 0o755); err != nil {
			return err
		}
	}
	fresh := func() *obdrel.Config {
		cfg := obdrel.DefaultConfig()
		cfg.RhoDist = math.Round((0.2+0.8*rng.Float64())*1e4) / 1e4
		cfg.SigmaRatio = math.Round((0.02+0.04*rng.Float64())*1e5) / 1e5
		cfg.VDD = math.Round((1.1+0.2*rng.Float64())*1e4) / 1e4
		cfg.HybridNL, cfg.HybridNB = tableN, tableN
		cfg.TableDir = tdir
		return cfg
	}

	// Two cold builds on a one-entry stage cache with a disk tier.
	src := pipeline.NewCache(1)
	src.SetTiers(pipeline.Tiers{Dir: dir})
	tracer := obs.NewTracer(obs.Options{RingSize: 4})
	var builds, pcas, thermals, blods, cycles []float64
	var an *obdrel.Analyzer
	var cfg *obdrel.Config
	for i := 0; i < 2; i++ {
		cfg = fresh()
		before := statMap(src)
		ctx, root := tracer.StartTrace(context.Background(), "perfbench.layers", "", "")
		t0 := time.Now()
		a, err := obdrel.NewAnalyzerCtxIn(ctx, src, d, cfg)
		if err != nil {
			return err
		}
		builds = append(builds, ms(time.Since(t0)))
		after := statMap(src)
		pcas = append(pcas, 1000*(after["pca"]-before["pca"]))
		thermals = append(thermals, 1000*(after["thermal"]-before["thermal"]))
		blods = append(blods, 1000*(after["blod"]-before["blod"]))
		total := 0.0
		root.EndTrace().Root.Walk(func(s *obs.SpanOut) {
			if s.Name == "thermal.multigrid" {
				switch c := s.Attrs["cycles"].(type) {
				case int:
					total += float64(c)
				case float64:
					total += c
				}
			}
		})
		cycles = append(cycles, total)
		an = a
	}
	e.set("obdrel.analyzer_build_ms", median(builds), "ms")
	e.set("grid.pca_ms", median(pcas), "ms")
	e.set("thermal.solve_ms", median(thermals), "ms")
	e.set("blod.build_ms", median(blods), "ms")
	e.set("thermal.mg_cycles", median(cycles), "count")
	e.set("grid.pca_cache_entries", float64(grid.SharedPCACache.Len()), "count")

	// The last configuration again, from the disk tier and from a peer
	// tier that serves the first cache's sealed artifacts.
	disk := pipeline.NewCache(1)
	disk.SetTiers(pipeline.Tiers{Dir: dir})
	t0 := time.Now()
	if _, err := obdrel.NewAnalyzerCtxIn(context.Background(), disk, d, cfg); err != nil {
		return err
	}
	e.set("pipeline.disk_load_ms", ms(time.Since(t0)), "ms")
	peer := pipeline.NewCache(1)
	peer.SetTiers(pipeline.Tiers{Fetch: func(_ context.Context, stage, key string) ([]byte, bool, error) {
		b, ok := src.Sealed(stage, key)
		return b, ok, nil
	}})
	t0 = time.Now()
	if _, err := obdrel.NewAnalyzerCtxIn(context.Background(), peer, d, cfg); err != nil {
		return err
	}
	e.set("pipeline.peer_fill_ms", ms(time.Since(t0)), "ms")

	// Engine queries.
	ppms := []float64{1, 2, 5, 10, 20, 50, 100}
	var st []float64
	for _, ppm := range ppms {
		t0 := time.Now()
		if _, err := an.LifetimePPM(ppm, obdrel.MethodStFast); err != nil {
			return err
		}
		st = append(st, ms(time.Since(t0)))
	}
	e.set("core.stfast_query_ms", median(st), "ms")
	t0 = time.Now()
	if err := an.Prepare(obdrel.MethodHybrid); err != nil {
		return err
	}
	e.set("core.hybrid_build_s", time.Since(t0).Seconds(), "s")
	var hy []float64
	for i := 0; i < 400; i++ {
		t0 := time.Now()
		if _, err := an.LifetimePPM(ppms[i%len(ppms)], obdrel.MethodHybrid); err != nil {
			return err
		}
		hy = append(hy, float64(time.Since(t0))/float64(time.Microsecond))
	}
	e.set("core.hybrid_query_us", median(hy), "us")
	files, err := filepath.Glob(filepath.Join(tdir, "*"))
	if err != nil || len(files) == 0 {
		return fmt.Errorf("no hybrid table file spilled to %s", tdir)
	}
	sort.Strings(files)
	t0 = time.Now()
	f, err := tablefile.Open(files[0])
	if err != nil {
		return err
	}
	e.set("tablefile.open_ms", ms(time.Since(t0)), "ms")
	f.Close()

	// MaxVDD: one cold search fills the probe analyzers, the timed one
	// is warm, as on a serving node.
	mv := pipeline.NewCache(64)
	probes := 0
	factory := func(ctx context.Context, pd *obdrel.Design, pc *obdrel.Config) (*obdrel.Analyzer, error) {
		probes++
		return obdrel.NewAnalyzerCtxIn(ctx, mv, pd, pc)
	}
	mcfg := obdrel.DefaultConfig()
	mcfg.RhoDist, mcfg.SigmaRatio = cfg.RhoDist, cfg.SigmaRatio
	target := 2e5 + 2e5*rng.Float64()
	if _, err := obdrel.MaxVDDFromCtx(context.Background(), factory, d, mcfg, obdrel.MethodStFast, 10, target, 0.9, 1.5, 0); err != nil {
		return err
	}
	probes = 0
	t0 = time.Now()
	if _, err := obdrel.MaxVDDFromCtx(context.Background(), factory, d, mcfg, obdrel.MethodStFast, 10, target, 0.9, 1.5, 0); err != nil {
		return err
	}
	e.set("obdrel.maxvdd_ms", ms(time.Since(t0)), "ms")
	e.set("obdrel.maxvdd_probes", float64(probes), "count")
	return nil
}

// statMap reads each stage's cumulative build seconds.
func statMap(c *pipeline.Cache) map[string]float64 {
	out := map[string]float64{}
	for _, s := range c.Snapshot() {
		out[strings.TrimSpace(s.Stage)] = s.BuildSeconds
	}
	return out
}
