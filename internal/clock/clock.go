// Package clock is the one source of time of the job service and the
// campaign manager: every timestamp and every timer of theirs comes from a
// Clock, so their tests drive retry backoff, watchdogs, cooldowns and the
// campaigns' backpressure wait by advancing a Fake instead of sleeping. (A
// job's own deadline is a context deadline and stays on the wall.)
package clock

import (
	"slices"
	"sync"
	"time"
)

// Clock tells the time and runs functions later.
type Clock interface {
	Now() time.Time
	// AfterFunc runs f on its own goroutine once d has passed; stop
	// reports whether it kept f from running.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// Wall is the real clock — the only one outside tests, and the only place
// non-test code of the service and the manager asks the time package for
// the time.
type Wall struct{}

func (Wall) Now() time.Time { return time.Now() }

func (Wall) AfterFunc(d time.Duration, f func()) func() bool {
	return time.AfterFunc(d, f).Stop
}

// Fake is the tests' Clock: it stands still until a test advances it.
type Fake struct {
	mu     sync.Mutex
	armed  sync.Cond // broadcast whenever a timer is armed
	now    time.Time
	timers []*timer // armed, neither fired nor stopped
}

type timer struct {
	at time.Time
	f  func()
}

// NewFake returns a fake clock at a fixed instant.
func NewFake() *Fake {
	c := &Fake{now: time.Unix(1_700_000_000, 0)}
	c.armed.L = &c.mu
	return c
}

func (c *Fake) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *Fake) AfterFunc(d time.Duration, f func()) func() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &timer{at: c.now.Add(d), f: f}
	c.timers = append(c.timers, t)
	c.armed.Broadcast()
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := len(c.timers)
		c.timers = slices.DeleteFunc(c.timers, func(u *timer) bool { return u == t })
		return len(c.timers) < n
	}
}

// Advance moves the clock by d and runs the functions that fell due, on the
// caller's goroutine and before it returns.
func (c *Fake) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var due []*timer
	c.timers = slices.DeleteFunc(c.timers, func(t *timer) bool {
		if t.at.After(c.now) {
			return false
		}
		due = append(due, t)
		return true
	})
	c.mu.Unlock()
	for _, t := range due {
		t.f()
	}
}

// WaitArmed blocks until n timers are armed and have neither fired nor been
// stopped — the event a test waits on before it advances the clock past
// them — and reports how far off each of them is, in the order armed.
func (c *Fake) WaitArmed(n int) []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.timers) < n {
		c.armed.Wait()
	}
	due := make([]time.Duration, len(c.timers))
	for i, t := range c.timers {
		due[i] = t.at.Sub(c.now)
	}
	return due
}
