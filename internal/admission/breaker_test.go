package admission

import (
	"errors"
	"testing"
	"time"
)

func TestBreakerTripProbeRecover(t *testing.T) {
	now := time.Unix(1000, 0)
	b := NewBreaker(3, 10*time.Second, func() time.Time { return now })

	if b.State() != BreakerClosed {
		t.Fatal("new breaker not closed")
	}
	if b.Failure() || b.Failure() {
		t.Fatal("breaker tripped below threshold")
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed breaker shed: %v", err)
	}
	if !b.Failure() {
		t.Fatal("third consecutive failure did not trip the breaker")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %s, want open", b.State())
	}
	err := b.Allow()
	if !errors.Is(err, ErrShedding) {
		t.Fatalf("open breaker admitted: %v", err)
	}
	if d, ok := RetryAfter(err); !ok || d <= 0 || d > 10*time.Second {
		t.Fatalf("open rejection Retry-After = %v/%v", d, ok)
	}

	// Cooldown elapses: exactly one probe is admitted.
	now = now.Add(11 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe not admitted after cooldown: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %s, want half-open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrShedding) {
		t.Fatalf("second submission during probe admitted: %v", err)
	}

	// Probe fails: straight back to open for a fresh cooldown.
	if !b.Failure() {
		t.Fatal("half-open failure did not re-open")
	}
	if err := b.Allow(); !errors.Is(err, ErrShedding) {
		t.Fatalf("re-opened breaker admitted: %v", err)
	}

	// Second probe succeeds: closed, and stays closed under traffic.
	now = now.Add(11 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe not admitted: %v", err)
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state after success = %s, want closed", b.State())
	}
	for i := 0; i < 5; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker shed submission %d: %v", i, err)
		}
	}
	// The streak reset: two failures must not trip again.
	if b.Failure() || b.Failure() {
		t.Fatal("failure streak survived a success")
	}
}

func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(0, time.Second, time.Now)
	for i := 0; i < 100; i++ {
		b.Failure()
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("disabled breaker shed: %v", err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("disabled breaker state = %s", b.State())
	}
}
