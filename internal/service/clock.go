package service

import "time"

// clock is the service's one source of time: every timestamp, the retry
// backoff and the progress watchdog's timer come from it, and the rate
// limiter and the circuit breaker read its Now, so the tests drive backoff,
// watchdog and cooldown by advancing a fake instead of sleeping. (A job's
// own deadline is a context deadline and stays on the wall.)
type clock interface {
	Now() time.Time
	// AfterFunc runs f on its own goroutine once d has passed; stop
	// reports whether it kept f from running.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// wallClock is the real one — the only clock outside tests, and the only
// place non-test code of this package asks the time package for the time.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) AfterFunc(d time.Duration, f func()) func() bool {
	return time.AfterFunc(d, f).Stop
}
