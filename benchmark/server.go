package main

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rdfsum/client"
)

// child is one running rdfsumd process.
type child struct {
	cmd     *exec.Cmd
	exited  chan struct{} // closed once Wait returned
	started time.Time     // just before exec
	logPath string        // its stderr; kept only when the run fails
	baseURL string
	cl      *client.Client
	hc      *http.Client
}

// startServer execs rdfsumd on port 0, waits for the "listening on" log
// line for the bound address, and polls /v1/healthz until it answers.
// extra args follow the fixed ones; procs is its GOMAXPROCS. The child
// dies with the harness (Pdeathsig) even when the harness is killed
// outright.
func startServer(ctx context.Context, bin, logPath string, procs int, args ...string) (*child, error) {
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	args = append([]string{"-addr", "127.0.0.1:0", "-log-level", "info"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logFile
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c := &child{cmd: cmd, exited: make(chan struct{}), started: time.Now(), logPath: logPath}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	go func() {
		cmd.Wait() //nolint:errcheck // a killed child's status carries no information
		close(c.exited)
	}()

	ctx, cancel := context.WithTimeout(ctx, phaseTimeout)
	defer cancel()
	addr, err := c.awaitListenAddr(ctx)
	if err != nil {
		c.stop()
		return nil, err
	}
	c.baseURL = "http://" + addr
	// One transport per child: its idle connections die with the process
	// and never leak into the next boot's measurements.
	c.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	if c.cl, err = client.New(c.baseURL, client.WithHTTPClient(c.hc)); err != nil {
		c.stop()
		return nil, err
	}
	for c.cl.Healthz(ctx) != nil {
		select {
		case <-ctx.Done():
			c.stop()
			return nil, fmt.Errorf("rdfsumd at %s never became healthy: %w", addr, ctx.Err())
		case <-c.exited:
			return nil, fmt.Errorf("rdfsumd exited during start-up:\n%s", c.logTail())
		case <-time.After(healthzPeriod):
		}
	}
	return c, nil
}

// awaitListenAddr polls the child's log for the line main.go documents
// as load-bearing: `rdfsumd: listening on <addr>`.
func (c *child) awaitListenAddr(ctx context.Context) (string, error) {
	for {
		if b, err := os.ReadFile(c.logPath); err == nil {
			if _, after, ok := bytes.Cut(b, []byte("listening on ")); ok {
				if line, _, complete := bytes.Cut(after, []byte("\n")); complete {
					return strings.Trim(string(line), "\" "), nil
				}
			}
		}
		select {
		case <-ctx.Done():
			return "", fmt.Errorf("rdfsumd did not report its listen address: %w\n%s", ctx.Err(), c.logTail())
		case <-c.exited:
			return "", fmt.Errorf("rdfsumd exited during start-up:\n%s", c.logTail())
		case <-time.After(healthzPeriod):
		}
	}
}

// stop kills the child and waits until it is gone. Safe to call twice.
func (c *child) stop() {
	if c == nil {
		return
	}
	c.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-c.exited
	if c.hc != nil {
		c.hc.CloseIdleConnections()
	}
}

func (c *child) logTail() string {
	b, _ := os.ReadFile(c.logPath)
	if len(b) > 4096 {
		b = b[len(b)-4096:]
	}
	return string(b)
}

// peakRSSMB reads the child's resident-set high-water mark.
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", c.cmd.Process.Pid)
}

// scrapeMetrics fetches and parses GET /v1/metrics.
func (c *child) scrapeMetrics(ctx context.Context) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: HTTP %d", resp.StatusCode)
	}
	return parseExposition(resp.Body)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
