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
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildQuaked builds the real daemon from source into the run's temporary
// directory, once per run: with a warm build cache that is a 0.7 s link, and
// nothing is left behind.
func buildQuaked(dir string) (string, error) {
	bin := filepath.Join(dir, "quaked")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/quaked").CombinedOutput(); err != nil {
		return "", fmt.Errorf("build quaked: %v\n%s", err, out)
	}
	return bin, nil
}

// listenRE matches the daemon's boot line (the same expression as
// cmd/quaked/e2e_test.go).
var listenRE = regexp.MustCompile(`msg="quaked listening" addr=(\S+)`)

// daemon is one spawned quaked with its own data directory.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	dataDir string
	client  *http.Client
	setupS  float64 // spawn -> /readyz 200

	logMu sync.Mutex
	logs  []string // last stderr lines, for diagnostics
	done  chan struct{}
}

// startDaemon spawns quaked on a random port with -data <fresh directory>
// (durable: journal, auto-checkpoints and campaign persistence, all fsynced)
// and waits until /readyz answers 200. On any failure the child is killed
// and its data directory removed before returning.
func startDaemon(e *env) (*daemon, error) {
	sp := e.tr.begin("quaked.spawn", e.parent, e.op)
	defer e.tr.end(sp)
	dataDir, err := os.MkdirTemp(e.tmp, "quaked-data-")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	cmd := exec.Command(e.quaked, "-addr", "127.0.0.1:0", "-data", dataDir)
	stderr, err := cmd.StderrPipe()
	if err == nil {
		err = cmd.Start()
	}
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, err
	}
	d := &daemon{cmd: cmd, dataDir: dataDir, done: make(chan struct{}),
		client: &http.Client{Timeout: 60 * time.Second}}

	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
			d.logMu.Lock()
			if d.logs = append(d.logs, line); len(d.logs) > 40 {
				d.logs = d.logs[1:]
			}
			d.logMu.Unlock()
		}
	}()

	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		d.stop()
		return nil, fmt.Errorf("quaked exited before listening:\n%s", d.tail())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("quaked did not listen within 30s:\n%s", d.tail())
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := d.client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("quaked not ready within 10s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
	d.setupS = time.Since(t0).Seconds()
	return d, nil
}

func (d *daemon) tail() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.logs, "\n")
}

// stop sends SIGTERM, waits for the child to exit (killing it if the drain
// outlasts 20 s), removes the data directory and returns the child's peak
// RSS in MB. It is safe to call on every path, once.
func (d *daemon) stop() float64 {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(20*time.Second, func() { d.cmd.Process.Kill() })
	<-d.done // stderr closed: the child is gone or going
	d.cmd.Wait()
	timer.Stop()
	os.RemoveAll(d.dataDir)
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// call performs one HTTP request and reads the whole body. Any status other
// than want is an error that names the body, so a 429 or 5xx is counted as a
// failed operation by the caller.
func (d *daemon) call(method, path string, body any, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want,
			strings.TrimSpace(string(data)))
	}
	return data, nil
}
