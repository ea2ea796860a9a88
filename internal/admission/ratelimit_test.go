package admission

import (
	"errors"
	"testing"
	"time"
)

func TestTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	tb := NewTokenBucket(1, func() time.Time { return now }) // 1/s, burst 2

	if err := tb.Allow(); err != nil {
		t.Fatalf("first burst token refused: %v", err)
	}
	if err := tb.Allow(); err != nil {
		t.Fatalf("second burst token refused: %v", err)
	}
	err := tb.Allow()
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("empty bucket admitted: %v", err)
	}
	if d, ok := RetryAfter(err); !ok || d <= 0 || d > 2*time.Second {
		t.Fatalf("rate-limit Retry-After = %v/%v, want ~1s", d, ok)
	}

	now = now.Add(1500 * time.Millisecond) // refills 1.5 tokens
	if err := tb.Allow(); err != nil {
		t.Fatalf("refilled token refused: %v", err)
	}
	if err := tb.Allow(); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("half a token admitted: %v", err)
	}

	now = now.Add(time.Hour) // refill clamps at burst
	for i := 0; i < 2; i++ {
		if err := tb.Allow(); err != nil {
			t.Fatalf("burst token %d refused after idle: %v", i, err)
		}
	}
	if err := tb.Allow(); !errors.Is(err, ErrRateLimited) {
		t.Fatal("bucket exceeded its burst after a long idle")
	}
}

func TestTokenBucketDisabled(t *testing.T) {
	tb := NewTokenBucket(0, time.Now)
	for i := 0; i < 1000; i++ {
		if err := tb.Allow(); err != nil {
			t.Fatalf("disabled limiter rejected: %v", err)
		}
	}
}
