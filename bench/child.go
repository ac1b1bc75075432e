package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// child is one `bench serve` process and the HTTP client that talks to it.
// The client holds at most two connections, so load, streams and scrapes
// together never exceed what two cores can drive.
type child struct {
	cmd  *exec.Cmd
	out  chan struct{} // closed when the child's stdout reaches EOF
	boot bootInfo
	base string
	http *http.Client // load: requests and the replication stream
	ctl  *http.Client // control: scrapes, trace switches, checks outside the window
}

// live tracks running children so that a failing benchmark never leaves
// one behind.
var live = struct {
	sync.Mutex
	set map[*child]bool
}{set: map[*child]bool{}}

func killAll() {
	live.Lock()
	cs := make([]*child, 0, len(live.set))
	for c := range live.set {
		cs = append(cs, c)
	}
	live.Unlock()
	for _, c := range cs {
		c.kill()
	}
}

// spawn starts `bench serve args...` from this same binary and waits until
// it answers /healthz.
func spawn(args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, append([]string{"serve"}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, out: make(chan struct{}), ctl: &http.Client{}, http: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
	}}
	live.Lock()
	live.set[c] = true
	live.Unlock()

	first := make(chan []byte, 1)
	go func() {
		defer close(c.out)
		br := bufio.NewReader(stdout)
		line, _ := br.ReadBytes('\n')
		first <- line
		_, _ = io.Copy(io.Discard, br)
	}()
	select {
	case line := <-first:
		if err := json.Unmarshal(line, &c.boot); err != nil {
			c.kill()
			return nil, fmt.Errorf("child did not report ready (got %q): %w", line, err)
		}
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, fmt.Errorf("child not ready after 60s")
	}
	c.base = "http://" + c.boot.Addr
	if _, err := c.ctlGet("/healthz"); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

// kill sends SIGKILL (a process crash: nothing is flushed or sealed) and
// waits until the process has ended. It is the only way a child ends.
func (c *child) kill() {
	live.Lock()
	running := live.set[c]
	delete(live.set, c)
	live.Unlock()
	if !running {
		return
	}
	c.http.CloseIdleConnections()
	c.ctl.CloseIdleConnections()
	_ = c.cmd.Process.Kill()
	<-c.out
	_ = c.cmd.Wait()
}

// do issues one request and reads the whole body; a non-2xx status is an
// error. req is sent as X-Bench-Req when non-zero, so a traced child files
// its spans under the same request id as the parent's.
func (c *child) do(method, path string, body []byte, req int64) ([]byte, error) {
	return c.send(c.http, method, path, body, req)
}

func (c *child) ctlGet(path string) ([]byte, error) {
	return c.send(c.ctl, http.MethodGet, path, nil, 0)
}

func (c *child) send(hc *http.Client, method, path string, body []byte, req int64) ([]byte, error) {
	r, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if req != 0 {
		r.Header.Set("X-Bench-Req", strconv.FormatInt(req, 10))
	}
	resp, err := hc.Do(r)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

func (c *child) getJSON(path string, v any) error {
	b, err := c.ctlGet(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// statsSnap is the part of GET /stats the benchmark reads.
type statsSnap struct {
	Counters map[string]int64 `json:"counters"`
	Persist  map[string]int64 `json:"persist"`
	at       time.Time
	elapsed  time.Duration // of a delta: the time between its two scrapes
}

func (c *child) stats() (statsSnap, error) {
	s := statsSnap{at: time.Now()}
	err := c.getJSON("/stats", &s)
	return s, err
}

// delta returns after - before for every counter of the later scrape
// (counters only ever appear, so the later scrape has them all).
func (before statsSnap) delta(after statsSnap) statsSnap {
	sub := func(a, b map[string]int64) map[string]int64 {
		out := make(map[string]int64, len(b))
		for k, v := range b {
			out[k] = v - a[k]
		}
		return out
	}
	return statsSnap{
		Counters: sub(before.Counters, after.Counters),
		Persist:  sub(before.Persist, after.Persist),
		elapsed:  after.at.Sub(before.at),
	}
}

// peakRSSMiB is the child's VmHWM, its peak resident set.
func (c *child) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", c.cmd.Process.Pid)
}
