package admission

import (
	"math"
	"sync"
	"time"
)

// TokenBucket is the submission rate limiter: a classic token bucket
// refilled at `rate` tokens per second, holding at most two seconds' worth
// (never less than one token). Each submission
// spends one token; an empty bucket rejects with ErrRateLimited wrapped in
// a RetryAfterError telling the client when the next token lands.
type TokenBucket struct {
	rate  float64 // tokens per second; <= 0 disables the limiter
	burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
	now    func() time.Time
}

// NewTokenBucket builds a limiter allowing `rate` submissions per second on
// the caller's clock, with bursts of int(2*rate) — at least 1, so an enabled
// limiter always admits something. rate <= 0 disables limiting entirely.
func NewTokenBucket(rate float64, now func() time.Time) *TokenBucket {
	burst := math.Max(1, math.Floor(2*rate))
	return &TokenBucket{rate: rate, burst: burst, tokens: burst, now: now}
}

// Allow spends one token, or rejects with a RetryAfterError carrying
// ErrRateLimited and the wait until a token is available.
func (tb *TokenBucket) Allow() error {
	if tb.rate <= 0 {
		return nil
	}
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := tb.now()
	if !tb.last.IsZero() {
		tb.tokens = math.Min(tb.burst, tb.tokens+now.Sub(tb.last).Seconds()*tb.rate)
	}
	tb.last = now
	if tb.tokens >= 1 {
		tb.tokens--
		return nil
	}
	wait := time.Duration((1 - tb.tokens) / tb.rate * float64(time.Second))
	return &RetryAfterError{Err: ErrRateLimited, RetryAfter: wait}
}
