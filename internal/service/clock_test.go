package service

import (
	"testing"
	"time"

	"swquake/internal/clock"
)

// openOnFake is Open on a fake clock.
func openOnFake(t *testing.T, opts Options) (*Service, *clock.Fake) {
	t.Helper()
	clk := clock.NewFake()
	s, err := open(opts, clk)
	if err != nil {
		t.Fatal(err)
	}
	return s, clk
}

// endBackoff waits for the job to sit in its retry backoff, then lets the
// whole of it pass: when endBackoff returns the job is queued again (or,
// with the queue full, failed).
func endBackoff(t *testing.T, s *Service, clk *clock.Fake, id string) {
	t.Helper()
	waitState(t, s, id, StateRetrying)
	clk.Advance(time.Minute) // the longest backoff is 100ms * 32 * 1.25
}
