package admission

import (
	"sync"
	"time"
)

// BreakerState is the circuit breaker's phase.
type BreakerState string

const (
	// BreakerClosed: normal operation, submissions flow.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen: tripped after repeated faults; submissions are shed
	// until the cooldown elapses.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen: cooldown elapsed; exactly one probe submission is
	// admitted to test whether the fault has cleared.
	BreakerHalfOpen BreakerState = "half-open"
)

// Breaker is the fault circuit breaker: `threshold` consecutive
// infrastructure failures (worker panics, engine faults, progress stalls —
// the service decides what counts) trip it open, shedding all submissions
// with ErrShedding for `cooldown`. After the cooldown one probe submission
// is admitted; if any job then succeeds the breaker closes, while another
// counted failure re-opens it for a fresh cooldown.
type Breaker struct {
	threshold int // <= 0 disables the breaker entirely
	cooldown  time.Duration

	mu       sync.Mutex
	state    BreakerState
	fails    int
	openedAt time.Time
	probing  bool
	now      func() time.Time
}

// NewBreaker builds a breaker tripping after `threshold` consecutive
// failures and cooling down for `cooldown` (min 1s) on the caller's clock.
// threshold <= 0 disables it: Allow always admits and State stays closed.
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if cooldown < time.Second {
		cooldown = time.Second
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, state: BreakerClosed, now: now}
}

// Allow admits or sheds one submission. Open: rejects with a
// RetryAfterError (ErrShedding, remaining cooldown). Half-open: admits a
// single probe; further submissions shed until the probe resolves.
func (b *Breaker) Allow() error {
	if b.threshold <= 0 {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		remaining := b.cooldown - b.now().Sub(b.openedAt)
		if remaining > 0 {
			return &RetryAfterError{Err: ErrShedding, RetryAfter: remaining}
		}
		b.state = BreakerHalfOpen
		b.probing = false
		fallthrough
	default: // BreakerHalfOpen
		if b.probing {
			return &RetryAfterError{Err: ErrShedding, RetryAfter: b.cooldown}
		}
		b.probing = true
		return nil
	}
}

// ProbeAborted returns the half-open probe slot when an admitted probe
// submission never became a job (e.g. it lost a later admission gate) —
// without it the breaker would wait forever for a probe that doesn't exist.
func (b *Breaker) ProbeAborted() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
	b.mu.Unlock()
}

// Success records a successful job: any success closes the breaker and
// clears the failure streak.
func (b *Breaker) Success() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	b.state = BreakerClosed
	b.fails = 0
	b.probing = false
	b.mu.Unlock()
}

// Failure records a counted infrastructure failure. Reaching the threshold
// while closed — or any failure while half-open — opens the breaker for a
// fresh cooldown. Returns true when this call tripped it open.
func (b *Breaker) Failure() bool {
	if b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == BreakerOpen {
		return false
	}
	if b.state == BreakerHalfOpen || b.fails >= b.threshold {
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.probing = false
		return true
	}
	return false
}

// State reports the current phase. An open breaker whose cooldown has
// elapsed still reports open until the next Allow promotes it — the
// transition happens on demand, not on a timer.
func (b *Breaker) State() BreakerState {
	if b.threshold <= 0 {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
