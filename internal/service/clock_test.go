package service

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a clock that stands still until a test advances it.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	at   time.Time
	f    func()
	dead bool // stopped or fired
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) AfterFunc(d time.Duration, f func()) func() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{at: c.now.Add(d), f: f}
	c.timers = append(c.timers, t)
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		alive := !t.dead
		t.dead = true
		return alive
	}
}

// Advance moves the clock by d and runs the functions that fell due, on the
// caller's goroutine and before it returns.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var due, live []*fakeTimer
	for _, t := range c.timers {
		switch {
		case t.dead:
		case t.at.After(c.now):
			live = append(live, t)
		default:
			t.dead = true
			due = append(due, t)
		}
	}
	c.timers = live
	c.mu.Unlock()
	for _, t := range due {
		t.f()
	}
}

// openOnFake is Open on a fake clock.
func openOnFake(t *testing.T, opts Options) (*Service, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	s, err := open(opts, clk)
	if err != nil {
		t.Fatal(err)
	}
	return s, clk
}

// endBackoff waits for the job to sit in its retry backoff, then lets the
// whole of it pass: when endBackoff returns the job is queued again (or,
// with the queue full, failed).
func endBackoff(t *testing.T, s *Service, clk *fakeClock, id string) {
	t.Helper()
	waitState(t, s, id, StateRetrying)
	clk.Advance(time.Minute) // the longest backoff is 100ms * 32 * 1.25
}

func TestFakeClock(t *testing.T) {
	clk := newFakeClock()
	start := clk.Now()
	var fired []string
	clk.AfterFunc(2*time.Second, func() { fired = append(fired, "late") })
	clk.AfterFunc(time.Second, func() { fired = append(fired, "soon") })
	stop := clk.AfterFunc(time.Second, func() { fired = append(fired, "stopped") })
	if !stop() || stop() {
		t.Fatal("stop must report true once, then false")
	}
	clk.Advance(999 * time.Millisecond)
	if len(fired) != 0 {
		t.Fatalf("fired early: %v", fired)
	}
	clk.Advance(time.Millisecond)
	if len(fired) != 1 || fired[0] != "soon" {
		t.Fatalf("after 1s: %v", fired)
	}
	clk.Advance(time.Hour)
	clk.Advance(time.Hour)
	if len(fired) != 2 || fired[1] != "late" || clk.Now().Sub(start) != 2*time.Hour+time.Second {
		t.Fatalf("after the jump: %v at %v", fired, clk.Now().Sub(start))
	}
}
