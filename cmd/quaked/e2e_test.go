package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"swquake/internal/scenario"
	"swquake/internal/service"
)

// TestMain doubles as the daemon entry point for the crash tests: the test
// binary re-execs itself with QUAKED_E2E_CHILD=1 and runs quaked's real
// main loop, so SIGKILL hits an actual process whose only persistence is
// the -data directory — exactly the situation the journal and checkpoints
// exist for.
func TestMain(m *testing.M) {
	if os.Getenv("QUAKED_E2E_CHILD") == "1" {
		if err := run(strings.Fields(os.Getenv("QUAKED_E2E_ARGS"))); err != nil {
			fmt.Fprintln(os.Stderr, "quaked:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is a quaked child process under test.
type daemon struct {
	cmd      *exec.Cmd
	base     string   // http://host:port
	bootLogs []string // stderr lines seen before the listen line
	waited   chan error
}

var listenRE = regexp.MustCompile(`msg="quaked listening" addr=(\S+)`)

// startDaemon boots a quaked child with the given flags (plus -addr on a
// random port) and waits until it is serving.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"QUAKED_E2E_CHILD=1",
		"QUAKED_E2E_ARGS="+strings.Join(args, " "),
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{cmd: cmd, waited: make(chan error, 1)}
	t.Cleanup(func() {
		cmd.Process.Kill()
		d.wait()
	})

	lines := make(chan string, 256)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default: // buffer full after boot; keep draining the pipe
			}
		}
		close(lines)
	}()
	deadline := time.After(30 * time.Second)
	for {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatalf("daemon exited before listening; logs:\n%s", strings.Join(d.bootLogs, "\n"))
			}
			d.bootLogs = append(d.bootLogs, line)
			if m := listenRE.FindStringSubmatch(line); m != nil {
				d.base = "http://" + m[1]
				return d
			}
		case <-deadline:
			t.Fatalf("daemon never listened; logs:\n%s", strings.Join(d.bootLogs, "\n"))
		}
	}
}

// kill SIGKILLs the daemon — no drain, no deferred cleanup, the crash the
// journal must survive.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d.wait()
}

// stop shuts the daemon down gracefully (SIGTERM + drain).
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-time.After(60 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	case err := <-d.waitCh():
		_ = err // non-zero exit after SIGKILL races are fine; crash tests only need it gone
	}
}

func (d *daemon) wait() {
	<-d.waitCh()
}

func (d *daemon) waitCh() chan error {
	select {
	case err := <-d.waited:
		d.waited <- err
	default:
		go func() { d.waited <- d.cmd.Wait() }()
	}
	return d.waited
}

// checkpointFiles lists a job's checkpoint dumps, oldest first.
func checkpointFiles(t *testing.T, dataDir, jobID string) []string {
	t.Helper()
	dir := filepath.Join(dataDir, "checkpoints", jobID)
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil // a finished job removes its whole directory
	}
	if err != nil {
		t.Fatalf("checkpoint dir: %v", err)
	}
	var names []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".swq" {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(names)
	return names
}

// stepOf parses the step from a ckpt-%08d.swq path.
func stepOf(t *testing.T, path string) int {
	t.Helper()
	name := strings.TrimSuffix(filepath.Base(path), ".swq")
	n, err := strconv.Atoi(strings.TrimPrefix(name, "ckpt-"))
	if err != nil {
		t.Fatalf("checkpoint name %q: %v", path, err)
	}
	return n
}

// flipByte corrupts a file in place, as a disk error would.
func flipByte(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], st.Size()/2); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], st.Size()/2); err != nil {
		t.Fatal(err)
	}
}

// TestKillRestartResumesFromValidCheckpoint is the end-to-end crash drill:
// a real quaked process is SIGKILLed mid-run, its newest checkpoint is
// corrupted on disk (the worst-case crash), and a reboot on the same -data
// directory must recover the job from the journal, resume it from the
// newest checkpoint that still verifies, and produce a result identical to
// an uninterrupted run.
func TestKillRestartResumesFromValidCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash drill")
	}
	const steps = e2eSteps
	body := fmt.Sprintf(`{"scenario":"quickstart","overrides":{"steps":%d}}`, steps)

	// uninterrupted reference, computed in-process
	cfg, err := scenario.Build("quickstart", scenario.Overrides{Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	refSvc := service.New(service.Options{Workers: 1})
	refID, err := refSvc.Submit(service.Request{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}

	dataDir := t.TempDir()
	d1 := startDaemon(t, "-data", dataDir, "-workers", "1", "-checkpoint-every", "10",
		"-faults", "io/slow:delay=200us,times=5")
	armed := false
	for _, line := range d1.bootLogs {
		if strings.Contains(line, "fault injection armed") {
			armed = true
		}
	}
	if !armed {
		t.Fatalf("-faults flag not acknowledged; boot logs:\n%s", strings.Join(d1.bootLogs, "\n"))
	}

	st, code := submit(t, d1.base, body)
	if code != 202 {
		t.Fatalf("submit returned %d", code)
	}
	jobID := st.ID
	pollUntil(t, d1.base, jobID, func(s service.Status) bool {
		return s.State == service.StateRunning && s.StepsDone >= 45
	})
	d1.kill(t)

	// worst case: the newest dump did not survive the crash intact
	files := checkpointFiles(t, dataDir, jobID)
	if len(files) < 2 {
		t.Fatalf("only %d checkpoints on disk after kill", len(files))
	}
	flipByte(t, files[len(files)-1])
	wantResume := stepOf(t, files[len(files)-2])

	d2 := startDaemon(t, "-data", dataDir, "-workers", "1", "-checkpoint-every", "10")
	final := pollUntil(t, d2.base, jobID, func(s service.Status) bool { return s.State.Terminal() })
	if final.State != service.StateDone {
		t.Fatalf("recovered job finished %s: %s", final.State, final.Error)
	}
	if !final.Recovered {
		t.Fatal("job not marked recovered")
	}
	if final.ResumedStep != wantResume {
		t.Fatalf("resumed from step %d, want %d (second-newest checkpoint)", final.ResumedStep, wantResume)
	}
	if final.StepsDone != steps {
		t.Fatalf("steps done %d, want %d", final.StepsDone, steps)
	}
	m := getMetrics(t, d2.base)
	if m["jobs_recovered"] != 1 || m["jobs_done"] != 1 {
		t.Fatalf("recovery metrics: %+v", m)
	}

	var got service.Result
	if code := doJSON(t, "GET", d2.base+"/v1/jobs/"+jobID+"/result", "", &got); code != 200 {
		t.Fatalf("result returned %d", code)
	}

	// compare with the uninterrupted reference, bit for bit
	refSt, err := refSvc.Wait(context.Background(), refID)
	if err != nil || refSt.State != service.StateDone {
		t.Fatalf("reference run: %+v %v", refSt, err)
	}
	want, err := refSvc.Result(refID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Manifest.Steps != want.Manifest.Steps ||
		got.Manifest.SurfacePGV != want.Manifest.SurfacePGV ||
		got.Manifest.SurfaceIntensity != want.Manifest.SurfaceIntensity ||
		got.Manifest.YieldedPointSteps != want.Manifest.YieldedPointSteps {
		t.Fatalf("manifest differs from uninterrupted run:\ngot  %+v\nwant %+v", got.Manifest, want.Manifest)
	}
	if len(got.Traces) != len(want.Traces) {
		t.Fatalf("trace count %d vs %d", len(got.Traces), len(want.Traces))
	}
	for i := range got.Traces {
		g, w := got.Traces[i], want.Traces[i]
		if len(g.U) != len(w.U) {
			t.Fatalf("trace %d: %d samples vs %d", i, len(g.U), len(w.U))
		}
		for n := range g.U {
			if g.U[n] != w.U[n] || g.V[n] != w.V[n] || g.W[n] != w.W[n] {
				t.Fatalf("trace %d sample %d differs from uninterrupted run", i, n)
			}
		}
	}

	// the finished job cleaned its checkpoints up; removal happens after the
	// job flips to done (outside the service lock), so allow it a moment
	deadline := time.Now().Add(5 * time.Second)
	for {
		files := checkpointFiles(t, dataDir, jobID)
		if len(files) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint debris after completion: %v", files)
		}
		time.Sleep(50 * time.Millisecond)
	}
	d2.stop(t)
}

// TestRestartSkipsFinishedJobs reboots on a data dir whose journal holds
// only terminal jobs: nothing must be re-run.
func TestRestartSkipsFinishedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash drill")
	}
	dataDir := t.TempDir()
	d1 := startDaemon(t, "-data", dataDir, "-workers", "1")
	st, code := submit(t, d1.base, `{"scenario":"quickstart","overrides":{"steps":20}}`)
	if code != 202 {
		t.Fatalf("submit returned %d", code)
	}
	pollUntil(t, d1.base, st.ID, func(s service.Status) bool { return s.State == service.StateDone })
	d1.stop(t)

	d2 := startDaemon(t, "-data", dataDir, "-workers", "1")
	if m := getMetrics(t, d2.base); m["jobs_recovered"] != 0 || m["jobs_submitted"] != 0 {
		t.Fatalf("terminal job re-ran after reboot: %+v", m)
	}
	// nothing was live, so the compacted journal holds no job to run — only
	// the finished job's ending, which keeps its ID from being issued again
	data, err := os.ReadFile(filepath.Join(dataDir, "journal.jsonl"))
	if err != nil || strings.Count(string(data), "\n") != 1 ||
		!strings.Contains(string(data), `"event":"done","job":"`+st.ID+`"`) || strings.Contains(string(data), `"spec"`) {
		t.Fatalf("compacted journal %q, err %v; want %s's done alone", data, err, st.ID)
	}
	d2.stop(t)
}

// TestFaultsFlagRejectsBadSpec keeps the -faults plumbing honest.
func TestFaultsFlagRejectsBadSpec(t *testing.T) {
	if err := run([]string{"-faults", "io/slow:delay=bogus"}); err == nil {
		t.Fatal("bad -faults spec accepted")
	}
	if err := run([]string{"-faults", "worker/panic:count=1"}); err == nil {
		t.Fatal("unknown -faults option accepted")
	}
}
