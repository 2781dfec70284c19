package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one obdreld process started by the benchmark. Its log goes
// to a file in the run's work directory, never to the benchmark's
// stdout, whose last line is the result.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	debug   string // http://127.0.0.1:port of -debug-addr
	started time.Time
	readyMS float64 // exec → first /readyz 200, set by waitReady
	done    chan struct{}
	logPath string
}

// handedOut holds every port freeAddr has returned, so that no two
// daemons of a run are given the same one. Daemons are started one at
// a time.
var handedOut = map[int]bool{}

// freeAddr picks a loopback port that is free now and lies below the
// kernel's ephemeral range. A port from the ephemeral range (what
// listening on :0 gives) can be taken, between its release here and
// obdreld's bind, as the local port of an outgoing connection (a
// starting node sends its join before it listens); obdreld would then
// exit with "address already in use".
func freeAddr() (string, error) {
	lo := 32768
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 {
			if v, err := strconv.Atoi(f[0]); err == nil {
				lo = v
			}
		}
	}
	if lo <= 2048 { // no room below the range: draw as if it began at 32768
		lo = 32768
	}
	for try := 0; try < 100; try++ {
		port := 1024 + rand.Intn(lo-1024)
		if handedOut[port] {
			continue
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		if l, err := net.Listen("tcp", addr); err == nil {
			l.Close()
			handedOut[port] = true
			return addr, nil
		}
	}
	return "", errors.New("no free loopback port below the ephemeral range")
}

// startDaemon execs obdreld with the given flags plus its listen and
// debug addresses. join, when set, makes the node a dynamic cluster
// member: "self" seeds a new cluster with the node's own URL, any other
// value is the URL of a member to join.
func (e *env) startDaemon(name, join string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	dbg, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + addr, debug: "http://" + dbg, done: make(chan struct{})}
	full := []string{"-addr", addr, "-debug-addr", dbg, "-quiet"}
	switch join {
	case "":
	case "self":
		full = append(full, "-self", d.base, "-join", d.base)
	default:
		full = append(full, "-self", d.base, "-join", join)
	}
	full = append(full, args...)
	d.logPath = filepath.Join(e.work, fmt.Sprintf("%s-%d.log", name, len(e.daemons)))
	logf, err := os.Create(d.logPath)
	if err != nil {
		return nil, err
	}
	d.cmd = exec.Command(e.obdreld, full...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() { d.cmd.Wait(); logf.Close(); close(d.done) }()
	e.daemons = append(e.daemons, d)
	return d, nil
}

// waitReady polls /readyz every 2 ms until it answers 200 and accept
// (if non-nil) approves its body. The poll interval is two orders of
// magnitude under the start-up it measures, so set-up time is not set
// by how often the benchmark looks.
func (d *daemon) waitReady(accept func(map[string]any) bool) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			log, _ := os.ReadFile(d.logPath)
			if len(log) > 2000 {
				log = log[len(log)-2000:]
			}
			return fmt.Errorf("obdreld exited before ready (%v), log ends: %s", d.cmd.ProcessState, bytes.TrimSpace(log))
		default:
		}
		resp, err := pollClient.Get(d.base + "/readyz")
		if err == nil {
			var body map[string]any
			json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && (accept == nil || accept(body)) {
				if d.readyMS == 0 {
					d.readyMS = ms(time.Since(d.started))
				}
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("obdreld at %s not ready within 60s", d.base)
}

// stop ends the process gracefully (SIGTERM, drain) and waits for it;
// kill ends it at once. Both are idempotent.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.kill()
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// cpuMS reads the process's user+system CPU time from /proc.
func (d *daemon) cpuMS() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) * 10 // USER_HZ is 100 on Linux
}

// metrics scrapes /metrics into "name{labels}" → value.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := pollClient.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// liveHeapMB forces a collection through the pprof heap endpoint on
// the debug listener, then reads the live heap gauge from /metrics.
func (d *daemon) liveHeapMB() (float64, error) {
	resp, err := pollClient.Get(d.debug + "/debug/pprof/heap?gc=1")
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	m, err := d.metrics()
	if err != nil {
		return 0, err
	}
	v, ok := m["obdreld_go_heap_alloc_bytes"]
	if !ok {
		return 0, errors.New("/metrics has no obdreld_go_heap_alloc_bytes")
	}
	return v / (1 << 20), nil
}

// memStats reads cumulative allocation and GC counts from the heap
// profile's MemStats trailer (debug=1 text form).
func (d *daemon) memStats() (totalAlloc, numGC float64) {
	resp, err := pollClient.Get(d.debug + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			totalAlloc, _ = strconv.ParseFloat(v, 64)
		} else if v, ok := strings.CutPrefix(line, "# NumGC = "); ok {
			numGC, _ = strconv.ParseFloat(v, 64)
		}
	}
	return totalAlloc, numGC
}

// pollClient serves readiness polls, scrapes and checks; loadClient
// carries timed traffic. Each keeps at most two connections per host.
var (
	pollClient = &http.Client{Timeout: 30 * time.Second, Transport: newTransport()}
	loadClient = &http.Client{Timeout: 60 * time.Second, Transport: newTransport()}
)

func newTransport() *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}
}

// getJSON issues one GET and decodes a 200 JSON answer.
func getJSON(c *http.Client, base, path string, q url.Values) (map[string]any, error) {
	u := base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := c.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", u, resp.StatusCode, bytes.TrimSpace(body))
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("GET %s: %v", u, err)
	}
	return out, nil
}

// postBatch streams a /v1/batch request and returns its item lines
// and trailer.
func postBatch(ctx context.Context, c *http.Client, base string, items []map[string]any) ([]map[string]any, map[string]any, error) {
	body, err := json.Marshal(items)
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, nil, fmt.Errorf("POST /v1/batch: %d %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	dec := json.NewDecoder(resp.Body)
	var lines []map[string]any
	for {
		var m map[string]any
		if err := dec.Decode(&m); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, err
		}
		lines = append(lines, m)
	}
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("POST /v1/batch: %d lines, want header+items+trailer", len(lines))
	}
	return lines[1 : len(lines)-1], lines[len(lines)-1], nil
}

func num(m map[string]any, key string) (float64, error) {
	v, ok := m[key].(float64)
	if !ok {
		return 0, fmt.Errorf("answer has no numeric %q: %v", key, m)
	}
	return v, nil
}
