package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// tableN is the hybrid table resolution (tableN × tableN) that serve
// and restart ask for: half the paper's 100 per axis, so that set-up
// (six table builds) can be repeated in every run.
const tableN = 50

var (
	servePPMs  = []float64{1, 2, 5, 10, 20, 50, 100}
	serveTimes = []float64{3e4, 1e5, 3e5, 1e6}
	stfastPPMs = []float64{1, 10, 100}
	// maxvddPoints are the loadgen "maxvdd" preset's 5- and 10-year
	// targets on its design, C1, plus two points on which the search's
	// answer is known to sit a whole tolV too low (see README.md).
	maxvddPoints = []struct {
		design string
		target float64
	}{{"C1", 43800}, {"C1", 87600}, {"C4", 1e5}, {"C1", 3e5}}
)

const (
	// maxvddTolV, maxvddVLo and maxvddVHi are the voltage resolution
	// and bracket of every MaxVDD search, as in the loadgen preset.
	maxvddTolV = 0.005
	maxvddVLo  = 1.0
	maxvddVHi  = 1.4
	// A serve round holds the loadgen "drm" preset's four analyzer
	// routes at 0.4× its weights (16 hybrid lifetimes, 10 hybrid
	// failure probabilities, 6 st_fast lifetimes, 4 blocks reads),
	// then 4 MaxVDD ops and 2 /v1/batch fleet sweeps.
	serveRound = 42
)

// lookup is one unary question: a lifetime at ppm or a failure
// probability at t hours, by method, on a design at the default
// configuration with tableN tables.
type lookup struct {
	design, method string
	ppm, t         float64
	n              int // table resolution
}

func (l lookup) path() string {
	if l.t > 0 {
		return "/v1/failureprob"
	}
	return "/v1/lifetime"
}

func (l lookup) query() url.Values {
	q := url.Values{"design": {l.design}, "method": {l.method},
		"hybrid_nl": {fmt.Sprint(l.n)}, "hybrid_nb": {fmt.Sprint(l.n)}}
	if l.t > 0 {
		q.Set("t", strconv.FormatFloat(l.t, 'g', -1, 64))
	} else {
		q.Set("ppm", strconv.FormatFloat(l.ppm, 'g', -1, 64))
	}
	return q
}

func (l lookup) item() map[string]any {
	it := map[string]any{"design": l.design, "method": l.method,
		"config": map[string]any{"hybrid_nl": l.n, "hybrid_nb": l.n}}
	if l.t > 0 {
		it["query"], it["t"] = "failureprob", l.t
	} else {
		it["query"], it["ppm"] = "lifetime", l.ppm
	}
	return it
}

func (l lookup) field() string {
	if l.t > 0 {
		return "failure_prob"
	}
	return "lifetime_hours"
}

// serve is warm polling by DRM controllers and fleet tools: two clients
// each send whole rounds of serveRound ops in a seeded order: 16 hybrid
// lifetimes, 10 hybrid failure probabilities, 6 st_fast lifetimes, 4
// blocks reads, one MaxVDD op on each of the four maxvddPoints, and 2
// /v1/batch fleet sweeps of 16 hybrid items.
type serve struct {
	d      *daemon
	mu     sync.Mutex
	unary  map[lookup]float64
	batchd map[lookup]float64
	blocks map[string]string      // design → first blocks answer
	maxv   map[[2]float64]float64 // (design index, target) → V
}

func (s *serve) tailQ() float64 { return 0.99 }

func (s *serve) setup(e *env) ([]float64, error) {
	s.unary, s.batchd, s.blocks, s.maxv = map[lookup]float64{}, map[lookup]float64{}, map[string]string{}, map[[2]float64]float64{}
	var times []float64
	for r := 0; r < 2; r++ {
		if s.d != nil {
			s.d.stop()
		}
		t0 := time.Now()
		d, err := e.startDaemon("serve", "", "-table-dir", filepath.Join(e.work, fmt.Sprintf("serve-tab-%d", r)),
			"-cache", "64")
		if err != nil {
			return nil, err
		}
		s.d = d
		if err := d.waitReady(nil); err != nil {
			return nil, err
		}
		for _, name := range designs {
			for _, m := range []string{"hybrid", "st_fast"} {
				l := lookup{design: name, method: m, ppm: 10, n: tableN}
				if _, err := getJSON(pollClient, d.base, l.path(), l.query()); err != nil {
					return nil, err
				}
			}
		}
		for _, mp := range maxvddPoints {
			var wrong wrongAnswer
			if _, err := s.maxVDD(pollClient, d.base, mp.design, mp.target, nil); err != nil && !errors.As(err, &wrong) {
				return nil, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// maxVDD is one MaxVDD op: the search, then the st_fast lifetimes at
// the answer V and at V + tolV, as a controller confirming its
// operating point asks them. V must meet the target and V + tolV must
// miss it; an answer that does not is a wrongAnswer.
func (s *serve) maxVDD(c *http.Client, base, design string, target float64, tt *tracedTally) (float64, error) {
	q := url.Values{"design": {design}, "method": {"st_fast"}, "ppm": {"10"},
		"hybrid_nl": {fmt.Sprint(tableN)}, "hybrid_nb": {fmt.Sprint(tableN)}}
	sq := url.Values{"target_hours": {strconv.FormatFloat(target, 'g', -1, 64)},
		"tolv": {strconv.FormatFloat(maxvddTolV, 'g', -1, 64)},
		"vlo":  {strconv.FormatFloat(maxvddVLo, 'g', -1, 64)},
		"vhi":  {strconv.FormatFloat(maxvddVHi, 'g', -1, 64)}}
	for k, v := range q {
		sq[k] = v
	}
	a, err := tt.get(c, base, "/v1/maxvdd", sq)
	if err != nil {
		return 0, err
	}
	v, err := num(a, "max_vdd")
	if err != nil {
		return 0, err
	}
	for _, probe := range []struct {
		vdd  float64
		meet bool
	}{{v, true}, {v + maxvddTolV, false}} {
		q.Set("vdd", strconv.FormatFloat(probe.vdd, 'g', -1, 64))
		a, err := tt.get(c, base, "/v1/lifetime", q)
		if err != nil {
			return 0, err
		}
		life, err := num(a, "lifetime_hours")
		if err != nil {
			return 0, err
		}
		if (life >= target) != probe.meet {
			return v, wrongAnswer{fmt.Errorf("maxvdd %s target %v h answered V=%v, but the lifetime at %v V is %v h",
				design, target, v, probe.vdd, life)}
		}
	}
	return v, nil
}

func (s *serve) run(e *env, p *phase, tt *tracedTally) error {
	var before tally
	if tt != nil {
		before = snap(s.d)
		tt.readyMS = append(tt.readyMS, s.d.readyMS)
	}
	// Each client's ops come from its own seeded stream, so the mix a
	// client sends does not depend on the other's speed.
	rngs := []*rand.Rand{rand.New(rand.NewSource(e.rng.Int63())), rand.New(rand.NewSource(e.rng.Int63()))}
	rounds := make([][]int, 2)
	points := make([][]int, 2)
	get := func(l lookup) (float64, error) {
		a, err := tt.get(loadClient, s.d.base, l.path(), l.query())
		if err != nil {
			return 0, err
		}
		v, err := num(a, l.field())
		if err != nil {
			return 0, err
		}
		s.record(e, s.unary, l, v, "unary")
		return v, nil
	}
	pick := func(r *rand.Rand, kind int) lookup {
		d := designs[r.Intn(len(designs))]
		switch kind {
		case 0:
			return lookup{design: d, method: "hybrid", ppm: servePPMs[r.Intn(len(servePPMs))], n: tableN}
		case 1:
			return lookup{design: d, method: "hybrid", t: serveTimes[r.Intn(len(serveTimes))], n: tableN}
		default:
			return lookup{design: d, method: "st_fast", ppm: stfastPPMs[r.Intn(len(stfastPPMs))], n: tableN}
		}
	}
	p.loop(2, 1, serveRound, func(c, i int) (int, error) {
		r := rngs[c]
		if i%serveRound == 0 {
			rounds[c] = r.Perm(serveRound)
			points[c] = r.Perm(len(maxvddPoints))
		}
		switch k := rounds[c][i%serveRound]; {
		case k < 16:
			_, err := get(pick(r, 0))
			return 1, err
		case k < 26:
			_, err := get(pick(r, 1))
			return 1, err
		case k < 32:
			l := pick(r, 2)
			l.design = designs[k-26] // one st_fast lifetime per design per round
			_, err := get(l)
			return 1, err
		case k < 36:
			d := designs[r.Intn(len(designs))]
			a, err := tt.get(loadClient, s.d.base, "/v1/blocks", url.Values{"design": {d},
				"hybrid_nl": {fmt.Sprint(tableN)}, "hybrid_nb": {fmt.Sprint(tableN)}})
			if err != nil {
				return 0, err
			}
			b, err := json.Marshal(a["blocks"])
			if err != nil {
				return 0, err
			}
			s.mu.Lock()
			defer s.mu.Unlock()
			if old, ok := s.blocks[d]; ok && old != string(b) {
				e.fail("blocks %s answered %s, earlier %s", d, b, old)
			}
			s.blocks[d] = string(b)
			return 1, nil
		case k < 40:
			mp := maxvddPoints[points[c][k-36]]
			v, err := s.maxVDD(loadClient, s.d.base, mp.design, mp.target, tt)
			var wrong wrongAnswer
			if err != nil && !errors.As(err, &wrong) {
				return 0, err
			}
			s.mu.Lock()
			key := [2]float64{float64(indexOf(designs, mp.design)), mp.target}
			if old, ok := s.maxv[key]; ok && old != v {
				e.fail("maxvdd %v answered %v, earlier %v", key, v, old)
			}
			s.maxv[key] = v
			s.mu.Unlock()
			return 3, err
		default:
			ls := make([]lookup, 16)
			items := make([]map[string]any, len(ls))
			for j := range ls {
				ls[j] = pick(r, r.Intn(2))
				items[j] = ls[j].item()
			}
			lines, trailer, err := postBatch(context.Background(), loadClient, s.d.base, items)
			if err != nil {
				return 0, err
			}
			if done, _ := trailer["done"].(bool); !done || len(lines) != len(ls) {
				return 0, fmt.Errorf("batch ended early: %v", trailer)
			}
			for j, line := range lines {
				res, _ := line["result"].(map[string]any)
				v, err := num(res, ls[j].field())
				if ok, _ := line["ok"].(bool); !ok || err != nil {
					return 0, fmt.Errorf("batch item %d: %v", j, line)
				}
				s.record(e, s.batchd, ls[j], v, "batch")
			}
			return len(ls), nil
		}
	})
	if tt != nil {
		tt.tally = snap(s.d).minus(before)
	}
	return nil
}

// record keeps the first answer to each lookup and flags any later
// answer to the same lookup that differs in a single bit.
func (s *serve) record(e *env, m map[lookup]float64, l lookup, v float64, what string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := m[l]; ok && math.Float64bits(old) != math.Float64bits(v) {
		e.fail("%s %+v answered %v, earlier %v", what, l, v, old)
	}
	m[l] = v
}

func (s *serve) liveHeapMB(e *env, p *phase) (float64, error) { return s.d.liveHeapMB() }

func (s *serve) check(e *env) error {
	ask := func(l lookup) (float64, error) {
		a, err := getJSON(pollClient, s.d.base, l.path(), l.query())
		if err != nil {
			return 0, err
		}
		return num(a, l.field())
	}
	// Every batch item equals its unary answer bit for bit.
	for l, v := range s.batchd {
		u, ok := s.unary[l]
		if !ok {
			var err error
			if u, err = ask(l); err != nil {
				return err
			}
		}
		if math.Float64bits(u) != math.Float64bits(v) {
			e.fail("batch %+v = %v, unary %v", l, v, u)
		}
	}
	// Hybrid agrees with st_fast within twice the table's interpolation
	// error, estimated per design by Richardson extrapolation from the
	// same lookup on a table of half the resolution: bilinear
	// interpolation error scales with h², so e(n) ≈ (L(n/2) − L(n))/3.
	for _, name := range designs {
		var errs, ests []float64
		for _, ppm := range stfastPPMs {
			st, err := ask(lookup{design: name, method: "st_fast", ppm: ppm, n: tableN})
			if err != nil {
				return err
			}
			h, err := ask(lookup{design: name, method: "hybrid", ppm: ppm, n: tableN})
			if err != nil {
				return err
			}
			hh, err := ask(lookup{design: name, method: "hybrid", ppm: ppm, n: tableN / 2})
			if err != nil {
				return err
			}
			errs = append(errs, math.Abs(h-st)/st)
			ests = append(ests, math.Abs(hh-h)/3/st)
		}
		tol := 2 * maxOf(ests)
		fmt.Fprintf(os.Stderr, "serve check %s: hybrid vs st_fast rel err %.4f, table error estimate %.4f\n",
			name, maxOf(errs), maxOf(ests))
		if maxOf(errs) > tol {
			e.fail("hybrid %s differs from st_fast by %.4f, over twice the %d×%d table's error estimate %.4f",
				name, maxOf(errs), tableN, tableN, maxOf(ests))
		}
	}
	if len(s.batchd) == 0 || len(s.maxv) == 0 {
		return fmt.Errorf("no batch or MaxVDD answers to check")
	}
	return nil
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
