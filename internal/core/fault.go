package core

import (
	"errors"
	"fmt"
	"math"
)

// The engine's fault taxonomy (DESIGN.md §3.7): an in-run fault is detected
// on one rank — a corrupt halo frame, a neighbour missing its step deadline,
// a panic in the rank goroutine — contained by unwinding every rank through
// the mpi world's abort channel, and, when checkpoints and a retry budget
// are configured, healed in-process by rewinding to the newest valid dump.
// Errors that are properties of the simulation itself (divergence, a
// canceled context, setup or checkpoint-write failures) are deliberately
// NOT EngineFaults: retrying them would reproduce them exactly.

// FaultKind classifies a contained engine fault.
type FaultKind string

const (
	// FaultHaloCorrupt: a halo frame failed its CRC check at the receiver.
	FaultHaloCorrupt FaultKind = "halo-corrupt"
	// FaultStall: a halo exchange missed Config.StepDeadline.
	FaultStall FaultKind = "stall"
	// FaultPanic: a rank goroutine panicked mid-run.
	FaultPanic FaultKind = "panic"
)

// EngineFault is a detected, contained in-run fault: the error class the
// self-healing retry loop of RunParallelCtx recovers from. It is raised as
// a panic inside the detecting rank, recovered at the rank's top level, and
// propagated to every other rank via the mpi abort channel.
type EngineFault struct {
	Kind FaultKind
	// Rank is the rank that detected the fault (filled at containment).
	Rank int
	// Step is the step the detecting rank was executing.
	Step int
	// Err is the underlying cause, if any.
	Err error
}

func (e *EngineFault) Error() string {
	msg := fmt.Sprintf("engine fault %s on rank %d at step %d", e.Kind, e.Rank, e.Step)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *EngineFault) Unwrap() error { return e.Err }

// FaultEvent reports one engine fault — and what the retry loop did about
// it — to Config.OnFault and Result.Faults.
type FaultEvent struct {
	Kind FaultKind
	Rank int
	Step int
	// Attempt numbers the run attempt that faulted (1 = first run).
	Attempt int
	// Recovered is true when the engine rewound and resumed in-process.
	Recovered bool
	// ResumeStep is the checkpoint step the retry resumed from (0 = from
	// the start). Meaningful only when Recovered.
	ResumeStep int
	// Err is the cause: the frame checksum mismatch, the step deadline that
	// ran out, or the panic text.
	Err error
}

// DefaultDivergenceLimit is the velocity magnitude (m/s) beyond which a
// solution is declared diverged when Config.DivergenceLimit is zero. Any
// physical ground velocity is orders of magnitude below it.
const DefaultDivergenceLimit = 1e6

// ErrDiverged is what a run that tripped the divergence predicate returns
// (wrapped, with the step and the magnitude): the same configuration
// diverges again at the same step, so a caller can tell it from a fault.
var ErrDiverged = errors.New("diverged")

// diverged is the one divergence predicate shared by the serial and
// parallel paths: NaN, ±Inf, or a magnitude beyond the configured limit.
// The parallel path maps NaN to +Inf before its AllreduceMax so the
// verdict stays collective; +Inf is diverged here either way.
func diverged(m, limit float64) bool {
	if limit <= 0 {
		limit = DefaultDivergenceLimit
	}
	return math.IsNaN(m) || math.IsInf(m, 0) || m > limit
}
