// Package admission is the overload-protection layer of the job service:
// the machinery that decides, before any solver memory is allocated,
// whether a submission may enter the system at all and when an accepted
// job may start.
//
// It provides:
//
//   - a cost model (EstimateCost) predicting a job's resident working set
//     from its core.Config and process-grid layout,
//     validated against live runtime.MemStats allocations in tests;
//   - a memory Ledger holding a global byte budget: jobs reserve their
//     estimate before a worker dequeues them, jobs that would exceed the
//     budget wait, and jobs that can never fit are rejected at submit;
//   - a class-aware Queue (interactive > batch) with weighted dispatch so
//     ensemble sweeps cannot starve ad-hoc jobs, budget gating at the
//     dequeue side, and TCP-style slow-start for jobs recovered on boot so
//     a restart does not stampede the worker pool;
//   - a token-bucket submission rate limiter (TokenBucket) and a circuit
//     Breaker that trips after repeated worker panics or engine faults and
//     sheds load until a probe job succeeds.
//
// The package is deliberately mechanism-only: internal/service wires these
// pieces into its submit path and worker pool, and cmd/quaked translates
// the typed rejections into HTTP 429s carrying Retry-After.
package admission

import (
	"errors"
	"fmt"
	"time"
)

// Class is a job's priority class. Interactive submissions (ad-hoc API
// jobs) are preferred over batch work (ensemble campaign members) by the
// queue's weighted dispatch.
type Class string

const (
	// ClassInteractive is the default class of ad-hoc submissions.
	ClassInteractive Class = "interactive"
	// ClassBatch marks background work — ensemble campaign members — that
	// must not starve interactive jobs.
	ClassBatch Class = "batch"
)

// Normalize maps the empty class to ClassInteractive and rejects unknowns.
func (c Class) Normalize() (Class, error) {
	switch c {
	case "":
		return ClassInteractive, nil
	case ClassInteractive, ClassBatch:
		return c, nil
	default:
		return "", fmt.Errorf("admission: unknown priority class %q (have %q, %q)",
			string(c), ClassInteractive, ClassBatch)
	}
}

// Typed rejections of the admission layer. ErrNeverFits is permanent (the
// job is larger than the configured budget); the others are load shedding
// and carry a Retry-After hint via RetryAfterError.
var (
	// ErrNeverFits rejects a job whose estimated working set exceeds the
	// total memory budget: no amount of waiting would ever admit it.
	ErrNeverFits = errors.New("admission: job exceeds the memory budget and can never run")
	// ErrRateLimited rejects a submission that exhausted the token bucket.
	ErrRateLimited = errors.New("admission: submission rate limit exceeded")
	// ErrShedding rejects a submission while the circuit breaker is open
	// after repeated worker panics or engine faults.
	ErrShedding = errors.New("admission: circuit breaker open, shedding load")
)

// RetryAfterError wraps a shedding rejection with the moment it is worth
// retrying — what quaked turns into an HTTP Retry-After header.
type RetryAfterError struct {
	Err        error
	RetryAfter time.Duration
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.Err, e.RetryAfter.Round(time.Millisecond))
}

func (e *RetryAfterError) Unwrap() error { return e.Err }

// RetryAfter extracts the retry hint from a rejection, if it carries one.
func RetryAfter(err error) (time.Duration, bool) {
	var ra *RetryAfterError
	if errors.As(err, &ra) {
		return ra.RetryAfter, true
	}
	return 0, false
}

// HealthState is the daemon's coarse health: what /healthz reports and
// what /readyz gates on.
type HealthState string

const (
	// Healthy: accepting and executing work normally.
	Healthy HealthState = "healthy"
	// Degraded: alive but shedding — the breaker is open or half-open.
	Degraded HealthState = "degraded"
	// Draining: shutting down; no new work is accepted.
	Draining HealthState = "draining"
)

// ParseBytes parses a human byte size: a bare integer is bytes, and the
// suffixes KB/MB/GB/TB (decimal) and KiB/MiB/GiB/TiB (binary) are accepted
// with an optional fractional part, case-insensitively ("512MiB", "1.5GB").
func ParseBytes(s string) (int64, error) {
	if s == "" {
		return 0, fmt.Errorf("admission: empty byte size")
	}
	units := []struct {
		suffix string
		mult   float64
	}{
		{"KiB", 1 << 10}, {"MiB", 1 << 20}, {"GiB", 1 << 30}, {"TiB", 1 << 40},
		{"KB", 1e3}, {"MB", 1e6}, {"GB", 1e9}, {"TB", 1e12},
		{"B", 1},
	}
	num, mult := s, 1.0
	for _, u := range units {
		if len(s) > len(u.suffix) && equalFold(s[len(s)-len(u.suffix):], u.suffix) {
			num, mult = s[:len(s)-len(u.suffix)], u.mult
			break
		}
	}
	var v float64
	if _, err := fmt.Sscanf(num, "%g", &v); err != nil || v < 0 {
		return 0, fmt.Errorf("admission: invalid byte size %q", s)
	}
	return int64(v * mult), nil
}

// FormatBytes renders a byte count with a binary suffix for humans.
func FormatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// equalFold is ASCII case-insensitive equality (no unicode tables needed
// for byte-size suffixes).
func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
