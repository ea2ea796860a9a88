// Package mpi is an in-process message-passing runtime that stands in for
// MPI in the paper's 2D process decomposition (§6.3 step 1). Ranks are
// goroutines; point-to-point messages travel over per-pair ordered channels
// and collectives synchronize through a shared reduction cell. The API is a
// deliberately small MPI subset: Send/Recv, non-blocking IsendOwned/Irecv
// (which is what lets the solver overlap halo communication with interior
// computation, the overlap AWP-ODC is known for; a send of either kind
// hands its slice over, uncopied), Gather and Allreduce — plus
// MPI_Abort-style world poisoning (Rank.Abort) and deadline-bounded waits
// (Request.WaitWithin), the substrate of the engine's fault containment, and
// CRC32 frame sealing (SealCRC/OpenCRC) for halo integrity checks.
package mpi

import (
	"fmt"
	"sync"
	"time"
)

// World owns the communication state for a fixed number of ranks.
type World struct {
	size   int
	queues []chan message // queues[src*size+dst]

	// aborted is closed by the first Abort; abortErr records who and why.
	// Once poisoned, every blocking operation on the world panics with the
	// *AbortError instead of waiting for messages that will never come —
	// the MPI_Abort semantics a contained rank failure needs so the other
	// ranks unwind instead of deadlocking.
	aborted  chan struct{}
	abortErr *AbortError // guarded by mu

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	gen     int

	redMax float64
	// redMaxOut double-buffers completed reductions by generation parity:
	// a rank that raced ahead into generation g+1 writes the other slot, and
	// generation g+2 cannot begin until every rank has left generation g.
	redMaxOut [2]float64
}

// AbortError is the panic value every blocking operation raises once the
// world is aborted. Rank goroutines recover it at their top level and
// unwind; it is a control-flow signal, not a data error.
type AbortError struct {
	// Rank is the rank that called Abort.
	Rank int
	// Reason is the aborter's diagnosis.
	Reason string
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("mpi: world aborted by rank %d: %s", e.Rank, e.Reason)
}

type message struct {
	tag  int
	data []float32
}

// queueCap bounds in-flight messages per (src,dst) pair. Halo exchange
// posts at most a handful of outstanding messages per neighbour.
const queueCap = 64

// NewWorld creates a world with the given number of ranks.
func NewWorld(size int) *World {
	if size <= 0 {
		panic("mpi: non-positive world size")
	}
	w := &World{
		size:    size,
		queues:  make([]chan message, size*size),
		aborted: make(chan struct{}),
	}
	for i := range w.queues {
		w.queues[i] = make(chan message, queueCap)
	}
	w.cond = sync.NewCond(&w.mu)
	return w
}

// Run executes fn concurrently on every rank and waits for all to finish.
func (w *World) Run(fn func(r *Rank)) {
	var wg sync.WaitGroup
	wg.Add(w.size)
	for id := 0; id < w.size; id++ {
		go func(id int) {
			defer wg.Done()
			fn(&Rank{id: id, w: w})
		}(id)
	}
	wg.Wait()
}

// Rank is one process's handle to the world.
type Rank struct {
	id int
	w  *World
}

// ID returns this rank's index in [0, world size).
func (r *Rank) ID() int { return r.id }

// Abort poisons the world: every rank blocked in — or later entering — a
// Send, Recv, Wait or reduction panics with the same *AbortError,
// so a fault contained on one rank unwinds all of them collectively instead
// of leaving neighbours waiting forever. The first Abort wins; later calls
// are no-ops. A world, once aborted, stays aborted.
func (r *Rank) Abort(reason string) {
	w := r.w
	w.mu.Lock()
	if w.abortErr == nil {
		w.abortErr = &AbortError{Rank: r.id, Reason: reason}
		close(w.aborted)
		w.cond.Broadcast()
	}
	w.mu.Unlock()
}

// AbortErr returns the abort that poisoned the world, or nil.
func (w *World) AbortErr() *AbortError {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.abortErr
}

// abortPanic raises the world's abort as a panic. Only valid after the
// aborted channel is closed (abortErr is immutable from then on).
func (w *World) abortPanic() {
	panic(w.AbortErr())
}

// checkAbortLocked panics with the abort error if the world is poisoned;
// the caller holds w.mu, which is released before panicking.
func (w *World) checkAbortLocked() {
	if w.abortErr != nil {
		err := w.abortErr
		w.mu.Unlock()
		panic(err)
	}
}

// Send hands data to dst with the given tag, as IsendOwned does but
// blocking: no copy is made, the receiver gets the very slice, and the
// sender must not touch it after the call. It blocks only while the
// (src,dst) queue is full, and panics with the *AbortError if the world
// aborts meanwhile.
func (r *Rank) Send(dst, tag int, data []float32) {
	if dst < 0 || dst >= r.w.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	select {
	case r.w.queues[r.id*r.w.size+dst] <- message{tag: tag, data: data}:
	case <-r.w.aborted:
		r.w.abortPanic()
	}
}

// Recv receives the next message from src, which must carry the expected
// tag (messages between a pair are ordered, so a tag mismatch is a protocol
// bug, reported by panic).
func (r *Rank) Recv(src, tag int) []float32 {
	if src < 0 || src >= r.w.size {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d", src))
	}
	var m message
	select {
	case m = <-r.w.queues[src*r.w.size+r.id]:
	case <-r.w.aborted:
		r.w.abortPanic()
	}
	if m.tag != tag {
		panic(fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d", r.id, tag, src, m.tag))
	}
	return m.data
}

// Request is a handle for a non-blocking operation.
type Request struct {
	w    *World
	done chan []float32
}

// Wait blocks until the operation completes, returning received data for
// Irecv (nil for IsendOwned). Wait panics with the *AbortError if the world
// is aborted before the operation completes.
func (q *Request) Wait() []float32 {
	select {
	case m := <-q.done:
		return m
	case <-q.w.aborted:
		q.w.abortPanic()
		return nil
	}
}

// WaitWithin is Wait bounded by a deadline: it returns (data, true) when
// the operation completes within d, and (nil, false) when the deadline
// expires first — the hung-exchange watchdog the engine's per-step deadline
// builds on. d <= 0 waits forever (plain Wait). Like Wait, it panics with
// the *AbortError on an aborted world. A timed-out request is still in
// flight; its message stays queued for a later Wait or is abandoned with
// the world.
func (q *Request) WaitWithin(d time.Duration) ([]float32, bool) {
	if d <= 0 {
		return q.Wait(), true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case m := <-q.done:
		return m, true
	case <-q.w.aborted:
		q.w.abortPanic()
		return nil, false
	case <-t.C:
		return nil, false
	}
}

// IsendOwned starts a non-blocking Send: ownership of the slice transfers
// to the receiver, which sees the very backing array the sender filled (the
// channel hand-off establishes the happens-before edge that makes the
// transfer race-free). The sender must not touch data after the call — not
// even while the returned Request is pending: the transfer goroutine reads
// the slice header only, never the elements, so there is no window in which
// the sender may still use them. The halo path uses this with recycled pack
// buffers to keep the steady-state exchange allocation-free.
func (r *Rank) IsendOwned(dst, tag int, data []float32) *Request {
	if dst < 0 || dst >= r.w.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	req := &Request{w: r.w, done: make(chan []float32, 1)}
	go func() {
		select {
		case r.w.queues[r.id*r.w.size+dst] <- message{tag: tag, data: data}:
			req.done <- nil
		case <-r.w.aborted:
		}
	}()
	return req
}

// Irecv starts a non-blocking receive.
func (r *Rank) Irecv(src, tag int) *Request {
	req := &Request{w: r.w, done: make(chan []float32, 1)}
	go func() {
		var m message
		select {
		case m = <-r.w.queues[src*r.w.size+r.id]:
		case <-r.w.aborted:
			return
		}
		if m.tag != tag {
			panic(fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d", r.id, tag, src, m.tag))
		}
		req.done <- m.data
	}()
	return req
}

// AllreduceMax returns the maximum of v across all ranks.
func (r *Rank) AllreduceMax(v float64) float64 {
	w := r.w
	w.mu.Lock()
	w.checkAbortLocked()
	if w.arrived == 0 {
		w.redMax = v
	} else if v > w.redMax {
		w.redMax = v
	}
	gen := w.gen
	w.arrived++
	if w.arrived == w.size {
		w.redMaxOut[gen%2] = w.redMax
		w.arrived = 0
		w.gen++
		w.cond.Broadcast()
	} else {
		for gen == w.gen {
			w.cond.Wait()
			w.checkAbortLocked()
		}
	}
	res := w.redMaxOut[gen%2]
	w.mu.Unlock()
	return res
}
