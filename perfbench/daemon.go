package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running `perfeng serve -loop=false` child process.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	drained chan struct{} // closed once the child's stdout hits EOF
}

// daemonArgs are the flags every serving workload starts perfengd with:
// one executor per CPU, the admission objective the sizing was measured
// at, and the default 1 s runtime-collector interval.
func daemonArgs() []string {
	return []string{"serve", "-loop=false", "-addr", "127.0.0.1:0",
		"-jobs-executors", strconv.Itoa(runtime.NumCPU()), "-jobs-target-p99", "2s",
		"-interval", "1s"}
}

// startDaemon execs perfengd and returns once it has printed its bound
// address and /healthz answers.
func startDaemon(ctx context.Context, bin string, client *http.Client) (*daemon, error) {
	cmd := exec.Command(bin, daemonArgs()...)
	cmd.Stderr = os.Stderr
	// The daemon dies with this process, should it be killed before it
	// stops the daemon itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	br := bufio.NewReader(stdout)
	const marker = "monitoring on http://"
	for d.url == "" {
		line, err := br.ReadString('\n')
		if i := strings.Index(line, marker); i >= 0 {
			d.url = "http://" + strings.TrimSuffix(strings.Fields(line[i+len(marker):])[0], "/")
		}
		if err != nil && d.url == "" {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return nil, fmt.Errorf("perfengd exited before printing its address: %w", err)
		}
	}
	go func() {
		_, _ = io.Copy(io.Discard, br) // the daemon's console output is not needed
		close(d.drained)
	}()
	for {
		if err := get(ctx, client, d.url+"/healthz", nil); err == nil {
			return d, nil
		} else if ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("perfengd never became healthy: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks the daemon to drain and exit, and waits until it has.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	_ = d.cmd.Wait()
}

// cpuTime is the daemon's user+system CPU time so far, from
// /proc/<pid>/stat (clock ticks of 10 ms).
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const tick = 10 * time.Millisecond // USER_HZ is 100 on Linux
	return time.Duration(utime+stime) * tick, nil
}

// peakRSS is the daemon's resident-set high-water mark (VmHWM), in MB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// samples is one OpenMetrics scrape: sample name with its label set
// (exactly as exposed) -> value.
type samples map[string]float64

// scrape fetches and parses the daemon's /metrics.
func (d *daemon) scrape(ctx context.Context, client *http.Client) (samples, error) {
	var s samples
	err := get(ctx, client, d.url+"/metrics", func(r io.Reader) error {
		var err error
		s, err = parseSamples(r)
		return err
	})
	return s, err
}

// parseSamples reads the sample lines of an OpenMetrics exposition.
func parseSamples(r io.Reader) (samples, error) {
	s := samples{}
	sc := bufio.NewScanner(r)
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
		if err != nil {
			continue // e.g. a trailing exemplar or timestamp we do not use
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// family sums every series of the named metric (all label sets).
func (s samples) family(name string) float64 {
	sum := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// delta is after-before of a metric family.
func delta(before, after samples, name string) float64 {
	return after.family(name) - before.family(name)
}

// get issues a GET and hands a 200 body to read (nil discards it).
func get(ctx context.Context, client *http.Client, url string, read func(io.Reader) error) error {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if read == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return read(resp.Body)
}

// commit is the VCS revision stamped into this binary, when it was built
// inside a git checkout.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
