package mpi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// recoverAbort runs fn and reports whether it panicked with an *AbortError.
func recoverAbort(fn func()) (aborted bool) {
	defer func() {
		if p := recover(); p != nil {
			var ae *AbortError
			if err, ok := p.(error); ok && errors.As(err, &ae) {
				aborted = true
				return
			}
			panic(p) // not an abort: re-raise
		}
	}()
	fn()
	return false
}

// TestAbortUnblocksRecv: ranks parked in a blocking Recv with no sender
// must panic with the abort error instead of deadlocking.
func TestAbortUnblocksRecv(t *testing.T) {
	var unblocked int32
	w := NewWorld(4)
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			time.Sleep(10 * time.Millisecond) // let the others block
			r.Abort("injected failure")
			return
		}
		if recoverAbort(func() { r.Recv(0, 1) }) {
			atomic.AddInt32(&unblocked, 1)
		}
	})
	if unblocked != 3 {
		t.Fatalf("%d ranks unblocked, want 3", unblocked)
	}
	ae := w.AbortErr()
	if ae == nil || ae.Rank != 0 || ae.Reason != "injected failure" {
		t.Fatalf("abort error %+v", ae)
	}
}

// TestAbortUnblocksCollectives: ranks waiting inside a reduction must wake
// and panic when any rank aborts.
func TestAbortUnblocksCollectives(t *testing.T) {
	var unblocked int32
	w := NewWorld(4)
	w.Run(func(r *Rank) {
		if r.ID() == 3 {
			time.Sleep(10 * time.Millisecond)
			r.Abort("collective abort")
			return
		}
		if recoverAbort(func() { r.AllreduceMax(1) }) {
			atomic.AddInt32(&unblocked, 1)
		}
	})
	if unblocked != 3 {
		t.Fatalf("%d ranks unblocked, want 3", unblocked)
	}
}

// TestAbortUnblocksWait: a pending Irecv whose message never arrives must
// panic out of Wait on abort, and the poisoned world must reject any later
// operation immediately.
func TestAbortUnblocksWait(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(r *Rank) {
		if r.ID() == 1 {
			time.Sleep(10 * time.Millisecond)
			r.Abort("no message coming")
			return
		}
		req := r.Irecv(1, 5)
		if !recoverAbort(func() { req.Wait() }) {
			t.Error("Wait returned on an aborted world")
		}
		// post-abort operations fail fast, not deadlock
		if !recoverAbort(func() { r.AllreduceMax(0) }) {
			t.Error("AllreduceMax entered a poisoned world")
		}
		if !recoverAbort(func() { r.Recv(1, 9) }) {
			t.Error("Recv entered a poisoned world")
		}
	})
}

// TestAbortFirstWins: concurrent aborts must record one winner atomically —
// the surviving Rank and Reason belong to the same Abort call.
func TestAbortFirstWins(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(r *Rank) {
		r.Abort(fmt.Sprintf("rank %d failed", r.ID()))
	})
	ae := w.AbortErr()
	if ae == nil {
		t.Fatal("no abort recorded")
	}
	if want := fmt.Sprintf("rank %d failed", ae.Rank); ae.Reason != want {
		t.Fatalf("torn abort: rank %d with reason %q", ae.Rank, ae.Reason)
	}
	if ae.Error() == "" {
		t.Fatal("empty abort message")
	}
}

// TestWaitWithinTimesOut: a receive with no sender must report failure at
// the deadline instead of blocking, while a satisfied receive completes.
func TestWaitWithinTimesOut(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(r *Rank) {
		if r.ID() != 0 {
			return // never sends
		}
		req := r.Irecv(1, 1)
		start := time.Now()
		data, ok := req.WaitWithin(30 * time.Millisecond)
		if ok || data != nil {
			t.Errorf("timed-out wait returned ok=%v data=%v", ok, data)
		}
		if time.Since(start) < 25*time.Millisecond {
			t.Error("WaitWithin returned before the deadline")
		}
	})
}

func TestWaitWithinDelivers(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 2, []float32{42})
			return
		}
		req := r.Irecv(0, 2)
		data, ok := req.WaitWithin(time.Second)
		if !ok || len(data) != 1 || data[0] != 42 {
			t.Errorf("WaitWithin got ok=%v data=%v", ok, data)
		}
	})
}

// TestAbortUnblocksFullQueueSend: a sender blocked on a full (src,dst)
// queue — and the detached IsendOwned transfer goroutines — must not hang a
// poisoned world (world.Run joining is the proof).
func TestAbortUnblocksFullQueueSend(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := NewWorld(2)
		w.Run(func(r *Rank) {
			if r.ID() != 0 {
				time.Sleep(10 * time.Millisecond)
				r.Abort("receiver gone")
				return
			}
			recoverAbort(func() {
				buf := []float32{1}
				for i := 0; ; i++ { // rank 1 never receives: the queue fills
					r.Send(1, i, buf)
				}
			})
		})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("aborted world did not unwind a blocked sender")
	}
}
