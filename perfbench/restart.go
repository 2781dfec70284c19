package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// restart is a cold node: set-up runs a seeding daemon over a fixed
// working set and stops it; each op starts a node on the seeded disk,
// answers the working set from it, then starts a second node with an
// empty artifact disk that joins the first and answers the same set
// once its rebalance has streamed the first node's artifacts.
type restart struct {
	set    []restartReq
	want   []string // the seeding daemon's answers, canonical JSON
	art    string   // seeded -artifact-dir
	tab    string   // seeded -table-dir
	nArt   int      // artifacts the seeding daemon spilled
	heapMB []float64
}

// restartReq is one working-set request: a hybrid lookup served from a
// table file, or a /v1/blocks read.
type restartReq struct {
	path string
	q    url.Values
	key  string // answer field compared; "" compares the blocks list
}

func (r *restart) tailQ() float64 { return 0.75 }

// workingSet is C1–C6 at the default configuration plus two
// design-space points drawn like sweep's, each asked for hybrid
// lifetimes at 1 and 10 ppm, a hybrid failure probability at 1e5 h,
// and its blocks.
func (r *restart) workingSet(e *env) {
	var cfgs []url.Values
	for _, d := range designs {
		cfgs = append(cfgs, url.Values{"design": {d}})
	}
	var gen configGen
	for i := 0; i < 2; i++ {
		cfgs = append(cfgs, gen.next(e).query())
	}
	for _, c := range cfgs {
		c.Set("method", "hybrid")
		c.Set("hybrid_nl", fmt.Sprint(tableN))
		c.Set("hybrid_nb", fmt.Sprint(tableN))
		with := func(k, v string) url.Values {
			q := url.Values{}
			for kk, vv := range c {
				q[kk] = vv
			}
			q.Set(k, v)
			return q
		}
		r.set = append(r.set,
			restartReq{"/v1/lifetime", with("ppm", "1"), "lifetime_hours"},
			restartReq{"/v1/lifetime", with("ppm", "10"), "lifetime_hours"},
			restartReq{"/v1/failureprob", with("t", "100000"), "failure_prob"},
			restartReq{"/v1/blocks", c, ""})
	}
}

// answer asks one node the whole working set and returns canonical
// answers: the exact float's bits for lookups, the re-encoded block
// list for /v1/blocks.
func (r *restart) answer(d *daemon, tt *tracedTally) ([]string, error) {
	out := make([]string, len(r.set))
	for i, req := range r.set {
		a, err := tt.get(loadClient, d.base, req.path, req.q)
		if err != nil {
			return nil, err
		}
		if req.key == "" {
			b, err := json.Marshal(a["blocks"])
			if err != nil {
				return nil, err
			}
			out[i] = string(b)
			continue
		}
		v, err := num(a, req.key)
		if err != nil {
			return nil, err
		}
		out[i] = strconv.FormatUint(math.Float64bits(v), 16)
	}
	return out, nil
}

func (r *restart) setup(e *env) ([]float64, error) {
	r.workingSet(e)
	var times []float64
	for rep := 0; rep < 2; rep++ {
		t0 := time.Now()
		r.art = filepath.Join(e.work, fmt.Sprintf("seed-art-%d", rep))
		r.tab = filepath.Join(e.work, fmt.Sprintf("seed-tab-%d", rep))
		d, err := e.startDaemon("seed", "", "-artifact-dir", r.art, "-table-dir", r.tab)
		if err != nil {
			return nil, err
		}
		if err := d.waitReady(nil); err != nil {
			return nil, err
		}
		want, err := r.answer(d, nil)
		if err != nil {
			return nil, err
		}
		d.stop()
		times = append(times, time.Since(t0).Seconds())
		if r.want != nil && fmt.Sprint(want) != fmt.Sprint(r.want) {
			e.fail("seeding daemons disagree between set-ups")
		}
		r.want = want
	}
	files, err := filepath.Glob(filepath.Join(r.art, "*.obda"))
	if err != nil {
		return nil, err
	}
	r.nArt = len(files)
	if r.nArt == 0 {
		return nil, fmt.Errorf("seeding daemon spilled no artifacts to %s", r.art)
	}
	return times, nil
}

func (r *restart) run(e *env, p *phase, tt *tracedTally) error {
	var n1, n2 *daemon
	var joinMS []float64
	r.heapMB = r.heapMB[:0]
	p.after = func(_, i int) {
		for _, d := range []*daemon{n1, n2} {
			if d == nil {
				continue
			}
			m, err := d.metrics()
			if err != nil {
				e.fail("scrape node: %v", err)
				continue
			}
			for _, st := range substrateStages {
				if b := m[fmt.Sprintf("obdreld_stage_builds_total{stage=%q}", st)]; b != 0 {
					e.fail("restarted node built stage %s %v times", st, b)
				}
			}
			if m["obdreld_hybrid_table_loads_total"] < 1 {
				e.fail("restarted node loaded no hybrid table file")
			}
		}
		if n1 != nil && n2 != nil {
			if tt != nil {
				if i == 0 {
					r.tour(e, n2)
				}
				tt.add(snap(n1, n2))
				// server.ready_ms is node 1's start-up with its warm
				// sweep from disk; node 2's wait also holds the join
				// and the whole rebalance, so it is kept apart.
				tt.readyMS = append(tt.readyMS, n1.readyMS)
				joinMS = append(joinMS, n2.readyMS)
			}
			h, err := sumHeap(n1, n2)
			if err != nil {
				e.fail("live heap: %v", err)
			}
			r.heapMB = append(r.heapMB, h)
		}
		for _, d := range []*daemon{n1, n2} {
			if d != nil {
				d.kill()
			}
		}
		n1, n2 = nil, nil
		os.RemoveAll(filepath.Join(e.work, "node2"))
	}
	p.loop(1, 1, 1, func(_, i int) (int, error) {
		var err error
		n1, err = e.startDaemon("node1", "self", "-artifact-dir", r.art, "-table-dir", r.tab)
		if err != nil {
			return 0, err
		}
		if err := n1.waitReady(nil); err != nil {
			return 0, err
		}
		got, err := r.answer(n1, tt)
		if err != nil {
			return 0, err
		}
		r.compare(e, "node1", got)
		n2, err = e.startDaemon("node2", n1.base, "-artifact-dir", filepath.Join(e.work, "node2"), "-table-dir", r.tab)
		if err != nil {
			return 0, err
		}
		if err := n2.waitReady(func(b map[string]any) bool {
			if b["status"] != "ready" || b["members"] != 2.0 {
				return false
			}
			m, err := n2.metrics()
			return err == nil && m["obdreld_artifact_rebalance_fetched_total"] >= float64(r.nArt)
		}); err != nil {
			return 0, err
		}
		if got, err = r.answer(n2, tt); err != nil {
			return 0, err
		}
		r.compare(e, "node2", got)
		return 2 * len(r.set), nil
	})
	p.after = nil
	if tt != nil {
		fmt.Fprintf(os.Stderr, "restart node 2 exec → ready, joined and rebalanced: median %.1f ms\n", median(joinMS))
	}
	return nil
}

func (r *restart) compare(e *env, node string, got []string) {
	for i := range got {
		if got[i] != r.want[i] {
			e.fail("%s %s?%s answered %s, seeding daemon %s", node, r.set[i].path, r.set[i].q.Encode(), got[i], r.want[i])
		}
	}
}

// tour sends one /v1/batch of the working set's lookups, which need no
// engine work either, so the batch route's server time is measured.
func (r *restart) tour(e *env, d *daemon) {
	var items []map[string]any
	for _, req := range r.set {
		if req.key == "" {
			continue
		}
		it := map[string]any{"design": req.q.Get("design"), "method": "hybrid",
			"config": map[string]any{"hybrid_nl": tableN, "hybrid_nb": tableN}}
		cfg := it["config"].(map[string]any)
		for _, k := range []string{"rho_dist", "sigma_ratio"} {
			if v := req.q.Get(k); v != "" {
				cfg[k], _ = strconv.ParseFloat(v, 64)
			}
		}
		if req.path == "/v1/failureprob" {
			it["query"], it["t"] = "failureprob", 1e5
		} else {
			ppm, _ := strconv.ParseFloat(req.q.Get("ppm"), 64)
			it["query"], it["ppm"] = "lifetime", ppm
		}
		items = append(items, it)
	}
	lines, _, err := postBatch(context.Background(), pollClient, d.base, items)
	if err != nil {
		e.fail("batch: %v", err)
		return
	}
	for i, l := range lines {
		if ok, _ := l["ok"].(bool); !ok {
			e.fail("batch item %d: %v", i, l)
		}
	}
}

// sumHeap is the two nodes' live heap after a forced collection.
func sumHeap(ds ...*daemon) (float64, error) {
	total := 0.0
	for _, d := range ds {
		h, err := d.liveHeapMB()
		if err != nil {
			return 0, err
		}
		total += h
	}
	return total, nil
}

func (r *restart) liveHeapMB(e *env, p *phase) (float64, error) {
	if len(r.heapMB) == 0 {
		return 0, fmt.Errorf("no op completed")
	}
	return median(r.heapMB), nil
}

func (r *restart) check(e *env) error { return nil }
