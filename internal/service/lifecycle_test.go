package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"swquake/internal/admission"
	"swquake/internal/telemetry"
	"swquake/internal/wal"
)

// jobIn hand-builds a durable job that sits in state from, with the gauges
// and the checkpoint directory a real one would have there.
// Its item never reaches the scheduler, so no worker touches it.
func jobIn(t *testing.T, s *Service, n int, from State) *job {
	t.Helper()
	req, err := quickSpec(20 + n).Request()
	if err != nil {
		t.Fatal(err)
	}
	j := newJob(fmt.Sprintf("job-%06d", n), req, fmt.Sprint("key-", n))
	j.state, j.entered, j.item = from, s.clk.Now(), &admission.Item{ID: j.id, Class: admission.ClassInteractive, Payload: j}
	if err := os.MkdirAll(s.ckptDir(j.id), 0o755); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch from {
	case stateNew:
		return j
	case StateQueued:
		s.m.queued.Add(1)
	case StateRunning:
		j.attempt = 1
		s.m.running.Add(1)
	case StateRetrying:
		j.attempt, j.err = 1, errors.New("first attempt failed")
	}
	s.jobs[j.id] = j
	return j
}

// TestLifecycleTable walks every (from, to) pair, as a job's own ending and —
// where the state entered is terminal — as a parked one. An illegal pair is
// refused and changes nothing. A legal one is checked for everything the
// edge carries: the state, done closed exactly when terminal, the outcome
// counter, both gauges, the journal event (none when parked), the checkpoint
// directory, and the four fields of the log record. The backoff an edge into
// retrying arms is run out at the end: every job it finds has moved on or
// comes back to the queue.
func TestLifecycleTable(t *testing.T) {
	var logs syncBuffer
	logger, err := telemetry.NewLogger(&logs, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, clk := openOnFake(t, Options{Workers: 1, DataDir: dir, Logger: logger})
	defer drain(t, s)
	var retrying *job
	journalKinds := func() []string {
		events, err := wal.Read[journalEvent](journalPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		var kinds []string
		for _, ev := range events {
			kinds = append(kinds, ev.JobID+" "+ev.Event)
		}
		return kinds
	}
	journaled := map[State]string{StateQueued: "submitted", StateRunning: "started", StateRetrying: "retrying",
		StateDone: "done", StateFailed: "failed", StateCanceled: "canceled"}
	outcome := func(m jobMetrics) map[State]int64 {
		return map[State]int64{StateDone: m.Done, StateFailed: m.Failed, StateCanceled: m.Canceled, StateRetrying: m.Retried}
	}
	isDone := func(j *job) bool {
		select {
		case <-j.done:
			return true
		default:
			return false
		}
	}

	states := []State{stateNew, StateQueued, StateRunning, StateRetrying, StateDone, StateFailed, StateCanceled}
	n := 0
	for _, from := range states {
		for _, to := range states {
			for _, parked := range []bool{false, true} {
				if parked && !to.Terminal() {
					continue
				}
				n++
				name := fmt.Sprintf("%q -> %q parked=%v", from, to, parked)
				j := jobIn(t, s, n, from)
				j.cacheHit = from == stateNew && to == StateDone // the only job born done
				if from.Terminal() {
					close(j.done)
				}
				before, kindsBefore, logged := metricsOf(s), journalKinds(), len(logs.String())
				c := change{from: from, to: to, parked: parked, err: errors.New("why"), result: &Result{}, resumedStep: 10}
				ok := s.transition(j, c)
				after, kinds := metricsOf(s), journalKinds()

				if want := slices.Contains(lifecycle[from], to); ok != want {
					t.Errorf("%s: allowed=%v, the table says %v", name, ok, want)
					continue
				}
				if !ok {
					if j.state != from || isDone(j) != from.Terminal() || after != before || len(kinds) != len(kindsBefore) {
						t.Errorf("%s: a refused transition changed something: state %q, metrics %+v -> %+v", name, j.state, before, after)
					}
					continue
				}
				if j.state != to || isDone(j) != to.Terminal() {
					t.Errorf("%s: state %q, done closed %v", name, j.state, isDone(j))
				}
				if s.transition(j, c) {
					t.Errorf("%s: taken a second time, by a job that had left %q", name, from)
				}
				if to == StateRetrying {
					retrying = j
				}
				for st, count := range outcome(after) {
					if want := outcome(before)[st] + b2i(st == to); count != want {
						t.Errorf("%s: counter of %q is %d, want %d", name, st, count, want)
					}
				}
				if want := before.Submitted + b2i(from == stateNew); after.Submitted != want {
					t.Errorf("%s: submitted %d, want %d", name, after.Submitted, want)
				}
				if want := before.Queued + b2i(to == StateQueued) - b2i(from == StateQueued); after.Queued != want {
					t.Errorf("%s: queue gauge %d, want %d", name, after.Queued, want)
				}
				if want := before.Running + b2i(to == StateRunning) - b2i(from == StateRunning); after.Running != want {
					t.Errorf("%s: running gauge %d, want %d", name, after.Running, want)
				}
				wantKind := journaled[to]
				if parked || j.cacheHit || from == StateRetrying && to == StateQueued {
					wantKind = ""
				}
				switch {
				case wantKind == "" && len(kinds) != len(kindsBefore):
					t.Errorf("%s: journaled %q, want nothing", name, kinds[len(kinds)-1])
				case wantKind != "" && (len(kinds) != len(kindsBefore)+1 || kinds[len(kinds)-1] != j.id+" "+wantKind):
					t.Errorf("%s: journal grew by %v, want one %q", name, kinds[len(kindsBefore):], wantKind)
				}
				_, statErr := os.Stat(s.ckptDir(j.id))
				if removed := (to == StateDone || to == StateCanceled) && !parked; os.IsNotExist(statErr) != removed {
					t.Errorf("%s: checkpoint directory removed=%v, want %v", name, os.IsNotExist(statErr), removed)
				}
				if from == StateRetrying && to == StateQueued {
					continue // the one edge without a log line
				}
				var rec map[string]any
				lines := strings.Split(strings.TrimSpace(logs.String()[logged:]), "\n")
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
					t.Fatalf("%s: log %q: %v", name, lines, err)
				}
				if rec["job_id"] != j.id || rec["from"] != string(from) || rec["to"] != string(to) || rec["attempt"] != float64(j.attempt) {
					t.Errorf("%s: log record %v", name, rec)
				}
			}
		}
	}
	clk.Advance(time.Minute)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if st, err := s.Wait(ctx, retrying.id); err != nil || st.State != StateDone || st.Attempt != 2 {
		t.Errorf("the job left in its backoff: %+v, %v", st, err)
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestRetryNeedsBudgetAndAProcess: a transient failure on the last allowed
// attempt, or in a service that is draining, fails the job instead of
// arming a backoff nobody would wait out.
func TestRetryNeedsBudgetAndAProcess(t *testing.T) {
	s, _ := openOnFake(t, Options{Workers: 1, DataDir: t.TempDir()})
	spent := jobIn(t, s, 1, StateRunning)
	spent.attempt = 3
	s.transition(spent, change{from: StateRunning, to: StateRetrying, err: errors.New("again")})
	if spent.state != StateFailed {
		t.Errorf("attempt 3 of a durable service's 3 went to %q", spent.state)
	}
	late := jobIn(t, s, 2, StateRunning)
	drain(t, s)
	s.transition(late, change{from: StateRunning, to: StateRetrying, err: errors.New("once")})
	if late.state != StateFailed {
		t.Errorf("a draining service sent the job to %q", late.state)
	}
}
