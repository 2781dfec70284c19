package main

import (
	"context"
	"fmt"
	"math"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// designs are the paper's six benchmark chips.
var designs = []string{"C1", "C2", "C3", "C4", "C5", "C6"}

// designConfig is one point of the design space: a chip with a
// correlation distance and a thickness sigma on the default 25×25
// correlation grid.
type designConfig struct {
	design     string
	rho, sigma float64
}

func (c designConfig) query() url.Values {
	return url.Values{
		"design":      {c.design},
		"rho_dist":    {strconv.FormatFloat(c.rho, 'g', -1, 64)},
		"sigma_ratio": {strconv.FormatFloat(c.sigma, 'g', -1, 64)},
	}
}

// configGen draws design-space points never drawn before, in blocks
// of six: each block covers C1–C6, and six equal strata of ρ_dist in
// [0.2, 1.0] and of σ/μ in [0.02, 0.06] (the ranges of the paper's
// Tables IV and V), each in a seeded order, so that every run sweeps a
// like mix of the space. It never draws the daemon's default (0.5, 0.04).
type configGen struct {
	seen            map[designConfig]bool
	order, rho, sig []int
	n               int
}

func (g *configGen) next(e *env) designConfig {
	if g.seen == nil {
		g.seen = map[designConfig]bool{}
	}
	k := len(designs)
	if g.n%k == 0 {
		g.order, g.rho, g.sig = e.rng.Perm(k), e.rng.Perm(k), e.rng.Perm(k)
	}
	i := g.n % k
	g.n++
	for {
		c := designConfig{designs[g.order[i]],
			math.Round((0.2+0.8*(float64(g.rho[i])+e.rng.Float64())/float64(k))*1e4) / 1e4,
			math.Round((0.02+0.04*(float64(g.sig[i])+e.rng.Float64())/float64(k))*1e5) / 1e5}
		if !g.seen[c] && !(c.rho == 0.5 && c.sigma == 0.04) {
			g.seen[c] = true
			return c
		}
	}
}

// sweep is design-space exploration: one client, every op a
// configuration the daemon has never seen, answered with st_fast
// lifetimes at 1 and 10 ppm and the failure probability at the 10-ppm
// lifetime.
type sweep struct {
	d       *daemon
	gen     configGen
	swept   []sweptConfig
	heapMB  float64
	tourCfg designConfig
}

type sweptConfig struct {
	c       designConfig
	l1, l10 float64
	fpAtL10 float64
}

const (
	// sweepHeapOps is the op count after which sweep samples the live
	// heap, so that the heap is compared at equal work.
	sweepHeapOps = 4
	// sweepStageCache and sweepRegistry size obdreld's stage cache and
	// analyzer registry below what one run sweeps, so every run goes
	// past them, as a long sweep past the defaults (64 and 32) does.
	sweepStageCache = 2
	sweepRegistry   = 2
)

func (s *sweep) tailQ() float64 { return 0.9 }

func (s *sweep) setup(e *env) ([]float64, error) {
	var times []float64
	for r := 0; r < 3; r++ {
		if s.d != nil {
			s.d.stop()
		}
		t0 := time.Now()
		dir := filepath.Join(e.work, fmt.Sprintf("sweep-art-%d", r))
		d, err := e.startDaemon("sweep", "", "-artifact-dir", dir,
			"-stage-cache", fmt.Sprint(sweepStageCache), "-cache", fmt.Sprint(sweepRegistry))
		if err != nil {
			return nil, err
		}
		s.d = d
		if err := d.waitReady(nil); err != nil {
			return nil, err
		}
		// First answers: every design at the default configuration,
		// which no timed op uses.
		for _, name := range designs {
			if _, err := getJSON(pollClient, d.base, "/v1/lifetime",
				url.Values{"design": {name}, "method": {"st_fast"}, "ppm": {"10"}}); err != nil {
				return nil, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

func (s *sweep) run(e *env, p *phase, tt *tracedTally) error {
	var before tally
	if tt != nil {
		before = snap(s.d)
		tt.readyMS = append(tt.readyMS, s.d.readyMS)
	} else {
		p.after = func(_, i int) {
			if i+1 == sweepHeapOps {
				h, err := s.d.liveHeapMB()
				if err != nil {
					e.fail("live heap: %v", err)
				}
				s.heapMB = h
			}
		}
	}
	p.loop(1, max(sweepHeapOps, len(designs)), 1, func(_, _ int) (int, error) {
		c := s.gen.next(e)
		sc := sweptConfig{c: c}
		q := c.query()
		q.Set("method", "st_fast")
		get := func(path string, q url.Values) (map[string]any, error) {
			return tt.get(loadClient, s.d.base, path, q)
		}
		var err error
		for _, ppm := range []struct {
			v   string
			dst *float64
		}{{"1", &sc.l1}, {"10", &sc.l10}} {
			q.Set("ppm", ppm.v)
			a, gerr := get("/v1/lifetime", q)
			if gerr != nil {
				return 0, gerr
			}
			if *ppm.dst, err = num(a, "lifetime_hours"); err != nil {
				return 0, err
			}
		}
		q.Del("ppm")
		q.Set("t", strconv.FormatFloat(sc.l10, 'g', -1, 64))
		a, err := get("/v1/failureprob", q)
		if err != nil {
			return 0, err
		}
		if sc.fpAtL10, err = num(a, "failure_prob"); err != nil {
			return 0, err
		}
		s.verify(e, sc)
		s.swept = append(s.swept, sc)
		s.tourCfg = c
		return 3, nil
	})
	p.after = nil
	if tt != nil {
		s.tour(e, tt)
		tt.tally = snap(s.d).minus(before)
	}
	return nil
}

// verify checks one op's answers against properties the method must
// have: lifetime rises from 1 to 10 ppm, and the failure probability
// at the 10-ppm lifetime is 1e-5 to within what the lifetime
// bisection (1e-10 on ln t) allows at the curve's local log-slope.
func (s *sweep) verify(e *env, sc sweptConfig) {
	if !(sc.l10 > sc.l1) || !(sc.l1 > 0) {
		e.fail("sweep %v: lifetime at 10 ppm %v not above 1 ppm %v", sc.c, sc.l10, sc.l1)
		return
	}
	slope := math.Ln10 / math.Log(sc.l10/sc.l1)
	tol := 2*slope*1e-10 + 1e-12
	if rel := math.Abs(sc.fpAtL10/1e-5 - 1); !(rel <= tol) {
		e.fail("sweep %v: failure probability at the 10-ppm lifetime is %v (rel err %.3g > %.3g)",
			sc.c, sc.fpAtL10, rel, tol)
	}
}

// tour sends, outside the timed ops, one request to each route the
// ops do not use, so that every route's server time is measured.
func (s *sweep) tour(e *env, tt *tracedTally) {
	q := s.tourCfg.query()
	q.Set("method", "st_fast")
	if _, err := tt.get(pollClient, s.d.base, "/v1/blocks", q); err != nil {
		e.fail("blocks: %v", err)
	}
	var items []map[string]any
	for _, ppm := range []float64{1, 2, 5, 10, 20, 50, 100, 10} {
		items = append(items, map[string]any{"design": s.tourCfg.design, "method": "st_fast", "ppm": ppm,
			"config": map[string]any{"rho_dist": s.tourCfg.rho, "sigma_ratio": s.tourCfg.sigma}})
	}
	lines, _, err := postBatch(context.Background(), pollClient, s.d.base, items)
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

func (s *sweep) liveHeapMB(e *env, p *phase) (float64, error) { return s.heapMB, nil }

// mcSeeds × mcSamples device-level Monte Carlo runs re-answer swept
// configurations; mcT is Student's t for mcSeeds−1 degrees of freedom
// at a one-sided tail of 5e-7, so a correct st_fast fails the check
// with probability under one in a million.
const (
	mcSeeds   = 8
	mcSamples = 300
	mcT       = 15.767
)

// check re-answers the first swept configuration of C1 and of C2 with
// method=MC under mcSeeds independent seeds and requires st_fast's
// 10-ppm lifetime to lie within mcT standard errors of their mean.
func (s *sweep) check(e *env) error {
	done := map[string]bool{}
	for _, sc := range s.swept {
		if done[sc.c.design] || (sc.c.design != "C1" && sc.c.design != "C2") {
			continue
		}
		done[sc.c.design] = true
		var ls []float64
		for k := 0; k < mcSeeds; k++ {
			q := sc.c.query()
			q.Set("method", "MC")
			q.Set("ppm", "10")
			q.Set("mc_samples", fmt.Sprint(mcSamples))
			q.Set("seed", fmt.Sprint(1000+k))
			a, err := getJSON(pollClient, s.d.base, "/v1/lifetime", q)
			if err != nil {
				return err
			}
			l, err := num(a, "lifetime_hours")
			if err != nil {
				return err
			}
			ls = append(ls, l)
		}
		mean, sd := meanSD(ls)
		se := sd / math.Sqrt(float64(len(ls)))
		fmt.Fprintf(os.Stderr, "sweep check %v: st_fast %.6g h, MC %.6g ± %.3g h (SE), diff %.2f SE\n",
			sc.c, sc.l10, mean, se, math.Abs(sc.l10-mean)/se)
		if !(math.Abs(sc.l10-mean) <= mcT*se) {
			e.fail("sweep %v: st_fast 10-ppm lifetime %v vs MC %v ± %v (SE): beyond %v SE",
				sc.c, sc.l10, mean, se, mcT)
		}
	}
	if len(done) < 2 {
		return fmt.Errorf("fewer than two MC-checkable configurations swept")
	}
	return nil
}

func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}
