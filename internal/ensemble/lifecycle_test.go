package ensemble

import (
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"swquake/internal/clock"
	"swquake/internal/scenario"
	"swquake/internal/service"
	"swquake/internal/wal"
)

// TestMemberLifecycleTable takes a member along every pair of phases, live
// and replayed: the edges below — and only they — are taken, and each does
// what it carries: a journal event (none for a park, none for a done member
// whose field is unsaved), its counter and its log line, and nothing of that
// when it is a replay.
func TestMemberLifecycleTable(t *testing.T) {
	dir := t.TempDir()
	svc, err := service.Open(service.Options{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var logs syncBuffer
	m, err := open(Options{Service: svc, Logger: slog.New(slog.NewTextHandler(&logs, nil))}, clock.NewFake())
	if err != nil {
		t.Fatal(err)
	}
	defer drainAll(t, m, svc)
	spec, err := sweepSpec(5, 2).normalized()
	if err != nil {
		t.Fatal(err)
	}
	journal := func() []string {
		events, err := wal.Read[campaignEvent](filepath.Join(dir, "campaigns.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var kinds []string
		for _, ev := range events {
			kinds = append(kinds, fmt.Sprintf("%s %d %s %s", ev.Event, ev.Member, ev.Job, ev.Error))
		}
		return kinds
	}

	// the member lifecycle: pending -> running -> done | skipped,
	// pending -> skipped, running -> pending (a park)
	edges := map[[2]memberPhase]bool{
		{memberPending, memberRunning}: true,
		{memberRunning, memberDone}:    true,
		{memberRunning, memberSkipped}: true,
		{memberPending, memberSkipped}: true,
		{memberRunning, memberPending}: true,
	}
	// what a live edge journals and counts
	carries := map[memberPhase]struct{ event, counter, log string }{
		memberRunning: {"member 0 job-000042 ", "members_submitted", ""},
		memberDone:    {"member_done 0  ", "members_done", "campaign member done"},
		memberSkipped: {"member_skip 0  why", "members_failed", "campaign member skipped"},
	}
	phases := []memberPhase{memberPending, memberRunning, memberDone, memberSkipped}
	n := 0
	for _, from := range phases {
		for _, to := range phases {
			for _, replay := range []bool{false, true} {
				for _, unsaved := range []bool{false, true} {
					if unsaved && to != memberDone {
						continue
					}
					n++
					name := fmt.Sprintf("%d -> %d replay=%v unsaved=%v", from, to, replay, unsaved)
					c, err := m.newCampaign(fmt.Sprintf("camp-%06d", n), spec)
					if err != nil {
						t.Fatal(err)
					}
					c.phases[0] = from
					before, kindsBefore, logged := m.Registry().Ints(), journal(), logs.String()
					ok := m.take(c, 0, change{from: from, to: to, job: "job-000042", err: errors.New("why"),
						unsaved: unsaved, replay: replay})
					after, kinds, lines := m.Registry().Ints(), journal(), strings.TrimPrefix(logs.String(), logged)

					if want := edges[[2]memberPhase{from, to}]; ok != want {
						t.Errorf("%s: taken=%v, want %v", name, ok, want)
						continue
					}
					if !ok {
						if c.phases[0] != from || len(kinds) != len(kindsBefore) || lines != "" || fmt.Sprint(after) != fmt.Sprint(before) {
							t.Errorf("%s: a refused edge left a trace", name)
						}
						continue
					}
					if c.phases[0] != to {
						t.Errorf("%s: phase %d", name, c.phases[0])
					}
					if to == memberRunning && c.jobs[0] != "job-000042" || to == memberSkipped && c.memberErrs[0] != "why" {
						t.Errorf("%s: job %q error %q", name, c.jobs[0], c.memberErrs[0])
					}
					want := carries[to]
					if replay || to == memberPending {
						want = struct{ event, counter, log string }{}
					}
					if unsaved {
						want.event = ""
					}
					switch added := kinds[len(kindsBefore):]; {
					case want.event == "" && len(added) != 0,
						want.event != "" && (len(added) != 1 || added[0] != want.event):
						t.Errorf("%s: journaled %q, want %q", name, added, want.event)
					}
					for key, v := range after {
						wantDelta := int64(0)
						if key == want.counter || key == "members_folded" && want.counter == "members_done" {
							wantDelta = 1
						}
						if key == "journal_events" {
							continue
						}
						if v-before[key] != wantDelta {
							t.Errorf("%s: %s moved by %d, want %d", name, key, v-before[key], wantDelta)
						}
					}
					if want.log != "" && !strings.Contains(lines, want.log) || want.log == "" && lines != "" {
						t.Errorf("%s: logged %q, want %q", name, lines, want.log)
					}
				}
			}
		}
	}
}

// TestBackpressureWaitsOnTheClock: a member the job service refuses with
// ErrQueueFull submits again only once the manager's clock has advanced the
// whole 50 ms backoff — one refusal per backoff, not a spin — and runs once
// the queue has room.
func TestBackpressureWaitsOnTheClock(t *testing.T) {
	logger, started := signalOn("job started")
	svc := service.New(service.Options{Workers: 1, QueueSize: 1, Logger: logger})
	clk := clock.NewFake()
	m, err := open(Options{Service: svc}, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer drainAll(t, m, svc)
	block := func(steps int) (string, error) {
		cfg, err := scenario.Build("quickstart", scenario.Overrides{Steps: steps})
		if err != nil {
			t.Fatal(err)
		}
		return svc.Submit(service.Request{Config: cfg})
	}
	// fill the service: one job runs, one waits in the one-slot queue
	running, err := block(200000)
	if err != nil {
		t.Fatal(err)
	}
	await(t, started, "the blocker's start")
	queued, err := block(200001)
	if err != nil {
		t.Fatal(err)
	}
	refusals := func() int64 { return svc.Metrics().Rejected }

	st, err := m.Create(sweepSpec(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	// refused, the member waits out the whole backoff on the manager's clock
	waiting := func(left time.Duration, refused int64) {
		t.Helper()
		if due, n := clk.WaitArmed(1), refusals(); !slices.Equal(due, []time.Duration{left}) || n != refused {
			t.Fatalf("timers due in %v after %d refusals, want [%v] after %d", due, n, left, refused)
		}
	}
	waiting(backoff, 1)
	clk.Advance(backoff - time.Millisecond)
	waiting(time.Millisecond, 1)
	clk.Advance(time.Millisecond) // the backoff ends: the member submits again, into the still-full queue
	waiting(backoff, 2)

	svc.Cancel(queued) // the queue has room at once
	svc.Cancel(running)
	clk.Advance(backoff)
	if final := waitCampaign(t, m, st.ID); final.State != StateDone || final.Folded != 1 {
		t.Fatalf("final status %+v", final)
	}
	if n, sub := refusals(), m.Registry().Ints()["members_submitted"]; n != 2 || sub != 1 {
		t.Fatalf("%d refusals and %d submissions, want 2 and 1", n, sub)
	}
}
