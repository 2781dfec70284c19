// Command perfbench is obdrel's steady benchmark. It builds nothing
// itself: run.sh builds obdreld and this program from the tree, then
// runs one workload against real obdreld processes over loopback and
// prints one JSON result as the last line of stdout.
//
//	perfbench --workload sweep|serve|restart --seed N --seconds S --trace 0|1
//	perfbench steady [-runs 10] [-seconds 20] [-seed 1]
//
// With --trace 0 the result holds the end-to-end metrics; with
// --trace 1 it holds the per-layer metrics, measured on a second timed
// phase with request tracing on, plus the tracing overhead. See
// README.md for the workloads, the metrics and the layer each moves.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one run's shared state: its inputs, its processes, its
// verdict and the figures it reports.
type env struct {
	seed    int64
	rng     *rand.Rand
	obdreld string
	work    string
	daemons []*daemon

	mu       sync.Mutex
	problems []string
	out      map[string]metric
}

// fail records an incorrect output; the run then reports correct=false.
func (e *env) fail(format string, args ...any) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.problems) < 20 {
		msg := fmt.Sprintf(format, args...)
		e.problems = append(e.problems, msg)
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", msg)
	}
}

func (e *env) set(name string, v float64, unit string) {
	e.out[name] = metric{Value: v, Unit: unit}
}

// workload is what each of sweep, serve and restart provides.
type workload interface {
	// setup brings the system to where the first op can be timed,
	// repeating the whole set-up several times on fresh processes and
	// disks; it returns the set-up times.
	setup(e *env) ([]float64, error)
	// run is one closed-loop timed phase; with tt set, requests ask for
	// their span trees and the daemons' counters are tallied into tt.
	run(e *env, p *phase, tt *tracedTally) error
	// liveHeapMB is the daemons' live heap for the phase just run.
	liveHeapMB(e *env, p *phase) (float64, error)
	// check verifies outputs that need requests after timing.
	check(e *env) error
	// tailQ is the op-latency quantile reported as op_tail_ms.
	tailQ() float64
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "sweep | serve | restart")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced phase")
	)
	flag.Parse()
	res, err := runWorkload(*name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, _ := json.Marshal(res)
	fmt.Println(string(b))
}

func runWorkload(name string, seed int64, seconds float64, traced bool) (res *result, err error) {
	var w workload
	switch name {
	case "sweep":
		w = &sweep{}
	case "serve":
		w = &serve{}
	case "restart":
		w = &restart{}
	default:
		return nil, fmt.Errorf("unknown workload %q (want sweep, serve or restart)", name)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	bin, err := filepath.Abs(filepath.Join(".bench_build", "bin", "obdreld"))
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("obdreld binary missing (run through perfbench/run.sh): %v", err)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(".bench_build", "run-"+name+"-")
	if err != nil {
		return nil, err
	}
	if work, err = filepath.Abs(work); err != nil {
		return nil, err
	}
	e := &env{seed: seed, rng: rand.New(rand.NewSource(seed)),
		obdreld: bin, work: work, out: map[string]metric{}}
	defer func() {
		for _, d := range e.daemons {
			d.kill()
		}
		os.RemoveAll(work)
	}()

	t0 := time.Now()
	setups, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	p := newPhase(seconds)
	if err := w.run(e, p, nil); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	heap, err := w.liveHeapMB(e, p)
	if err != nil {
		return nil, fmt.Errorf("%s live heap: %w", name, err)
	}
	attempted, failed := p.ops+p.errored, p.failed
	e2e := map[string]metric{
		"setup_s":       {median(setups), "s"},
		"ops_per_s":     {p.opsPerS(), "1/s"},
		"answers_per_s": {p.answersPerS(), "1/s"},
		"op_p50_ms":     {quantile(p.lat, 0.5), "ms"},
		"op_tail_ms":    {quantile(p.lat, w.tailQ()), "ms"},
		"live_heap_mb":  {heap, "MB"},
	}
	for k, m := range e2e {
		fmt.Fprintf(os.Stderr, "%s %-14s %12.4f %s\n", name, k, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "%s ops=%d answers=%d failed=%d tail=p%g\n", name, p.ops, p.answers, p.failed, 100*w.tailQ())

	metrics := e2e
	if traced {
		tp := newPhase(seconds)
		tt := &tracedTally{}
		if err := w.run(e, tp, tt); err != nil {
			return nil, fmt.Errorf("%s traced phase: %w", name, err)
		}
		attempted, failed = attempted+tp.ops+tp.errored, failed+tp.failed
		e.daemonLayers(tt, tp.ops)
		e.set("trace.overhead_p50_pct", 100*(quantile(tp.lat, 0.5)/quantile(p.lat, 0.5)-1), "%")
		e.set("trace.overhead_ops_pct", 100*(1-tp.opsPerS()/p.opsPerS()), "%")
		if err := libraryLayers(e, name); err != nil {
			return nil, fmt.Errorf("%s library layers: %w", name, err)
		}
		metrics = e.out
		names := make([]string, 0, len(metrics))
		for k := range metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(os.Stderr, "%s %-34s %14.4f %s\n", name, k, metrics[k].Value, metrics[k].Unit)
		}
	}
	tc := time.Now()
	if err := w.check(e); err != nil {
		return nil, fmt.Errorf("%s check: %w", name, err)
	}
	fmt.Fprintf(os.Stderr, "%s run took %.1fs, of which checks after timing %.1fs\n",
		name, time.Since(t0).Seconds(), time.Since(tc).Seconds())
	if attempted == 0 {
		return nil, fmt.Errorf("%s: no op completed", name)
	}
	for k, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", name, k, m.Value)
		}
	}
	return &result{Correct: len(e.problems) == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// phase is one closed-loop timed phase: every client sends its next op
// only when the previous one has been answered.
type phase struct {
	seconds float64
	mu      sync.Mutex
	lat     []float64 // ms per completed op
	ops     int       // answered, rightly or wrongly
	failed  int       // answered wrongly or not at all
	errored int       // not answered
	answers int
	start   time.Time
	wall    time.Duration
	paused  time.Duration
	// after, when set, runs between ops (outside their timing) and its
	// duration is taken off the phase's wall clock.
	after func(client, i int)
}

func newPhase(seconds float64) *phase { return &phase{seconds: seconds} }

// wrongAnswer is an op that was answered, but wrongly: it counts as
// failed and is still timed.
type wrongAnswer struct{ error }

// loop runs clients closed loops until the phase's time is up, at least
// minOps ops have completed, and every client has finished a whole
// round of round ops. op returns the answers it delivered; an error
// counts the op as failed.
func (p *phase) loop(clients, minOps, round int, op func(client, i int) (int, error)) {
	p.start = time.Now()
	dur := time.Duration(p.seconds * float64(time.Second))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				p.mu.Lock()
				elapsed := time.Since(p.start) - p.paused
				more := elapsed < dur || p.ops+p.errored < minOps || i%round != 0
				if elapsed > dur+90*time.Second { // a run must end even if ops hang or fail
					more = false
				}
				p.mu.Unlock()
				if !more {
					return
				}
				t0 := time.Now()
				n, err := op(c, i)
				d := time.Since(t0)
				p.mu.Lock()
				var wrong wrongAnswer
				switch {
				case errors.As(err, &wrong):
					if p.failed == 0 {
						fmt.Fprintln(os.Stderr, "wrong answer, counted as failed:", err)
					}
					p.failed++
					p.ops++
					p.lat = append(p.lat, ms(d))
				case err != nil:
					p.failed++
					p.errored++
					fmt.Fprintln(os.Stderr, "op failed:", err)
				default:
					p.ops++
					p.answers += n
					p.lat = append(p.lat, ms(d))
				}
				p.mu.Unlock()
				if p.after != nil {
					t := time.Now()
					p.after(c, i)
					p.pause(time.Since(t))
				}
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(p.start)
}

// pause removes d (a measurement taken between ops) from the phase's
// timed wall clock.
func (p *phase) pause(d time.Duration) {
	p.mu.Lock()
	p.paused += d
	p.mu.Unlock()
}

func (p *phase) opsPerS() float64     { return float64(p.ops) / (p.wall - p.paused).Seconds() }
func (p *phase) answersPerS() float64 { return float64(p.answers) / (p.wall - p.paused).Seconds() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile by the exclusive method, Python's
// statistics.quantiles default: the value at 1-based rank q·(n+1),
// interpolated linearly and held within the sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := math.Min(math.Max(q*float64(len(s)+1), 1), float64(len(s)))
	lo := int(math.Floor(h))
	if lo == len(s) {
		return s[lo-1]
	}
	return s[lo-1] + (h-float64(lo))*(s[lo]-s[lo-1])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// steady repeats each workload with consecutive seeds and prints, for
// every end-to-end metric, the median, the quartiles, the quartile
// spread as a share of the median, and the max/min ratio.
func steady(args []string) int {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	seconds := fs.Int("seconds", 20, "timed phase per run")
	seed := fs.Int64("seed", 1, "first seed")
	fs.Parse(args)
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	code := 0
	for _, w := range []string{"sweep", "serve", "restart"} {
		vals := map[string][]float64{}
		units := map[string]string{}
		shares := map[float64]int{}
		var steal []float64
		for i := 0; i < *runs; i++ {
			s := *seed + int64(i)
			st0, all0 := cpuSteal()
			res, err := runChild(self, w, s, *seconds)
			st1, all1 := cpuSteal()
			if all1 > all0 {
				steal = append(steal, 100*(st1-st0)/(all1-all0))
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", w, s, err)
				code = 1
				continue
			}
			if !res.Correct {
				fmt.Fprintf(os.Stderr, "%s seed %d: outputs incorrect\n", w, s)
				code = 1
			}
			shares[float64(res.Failed)/float64(res.Attempted)]++
			for k, m := range res.Metrics {
				vals[k] = append(vals[k], m.Value)
				units[k] = m.Unit
			}
		}
		keys := make([]string, 0, len(vals))
		for k := range vals {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Printf("%-8s %-14s %6s %12s %12s %12s %8s %8s  (n=%d, failed shares %v, host steal %% per run %.1f)\n",
			"workload", "metric", "unit", "q1", "median", "q3", "iqr/med", "max/min", *runs, shares, steal)
		for _, k := range keys {
			xs := vals[k]
			q1, q2, q3 := quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
			mn, mx := xs[0], xs[0]
			for _, x := range xs {
				mn, mx = math.Min(mn, x), math.Max(mx, x)
			}
			fmt.Printf("%-8s %-14s %6s %12.4f %12.4f %12.4f %8.4f %8.4f\n",
				w, k, units[k], q1, q2, q3, (q3-q1)/q2, mx/mn)
		}
	}
	return code
}

// cpuSteal reads, from the first line of /proc/stat, the CPU time the
// hypervisor gave to other guests and the CPU time of every kind, in
// ticks. On a shared virtual host the runs' spread follows the steal
// share, so steady prints it with each set.
func cpuSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// user nice system idle iowait irq softirq steal; the guest
	// columns after them are already counted in user and nice.
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

func runChild(self, w string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, err
	}
	return &res, nil
}
