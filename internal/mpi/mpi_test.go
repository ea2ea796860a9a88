package mpi

import (
	"sync/atomic"
	"testing"
)

func TestSendRecvPair(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, []float32{1, 2, 3})
		} else {
			got := r.Recv(0, 7)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("recv got %v", got)
			}
		}
	})
}

// TestSendHandsDataOver: Send makes no copy — the receiver gets the very
// backing array the sender filled — and Gather hands over every part, root's
// own included.
func TestSendHandsDataOver(t *testing.T) {
	w := NewWorld(2)
	sent := make([][]float32, 2)
	w.Run(func(r *Rank) {
		buf := []float32{float32(r.ID())}
		sent[r.ID()] = buf
		if r.ID() == 0 {
			r.Send(1, 0, buf)
		} else if got := r.Recv(0, 0); &got[0] != &sent[0][0] {
			t.Error("Send copied the slice it hands over")
		}
		if out := r.Gather(1, buf); r.ID() == 1 {
			for id, part := range out {
				if &part[0] != &sent[id][0] {
					t.Errorf("Gather copied rank %d's part", id)
				}
			}
		}
	})
}

func TestMessagesOrdered(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < 10; i++ {
				r.Send(1, i, []float32{float32(i)})
			}
		} else {
			for i := 0; i < 10; i++ {
				if got := r.Recv(0, i); got[0] != float32(i) {
					t.Errorf("message %d out of order: %v", i, got)
				}
			}
		}
	})
}

func TestIsendIrecvOverlap(t *testing.T) {
	// the overlap pattern the halo exchange uses: post all requests, do
	// "interior work", then wait.
	w := NewWorld(4)
	w.Run(func(r *Rank) {
		left := (r.ID() + 3) % 4
		right := (r.ID() + 1) % 4
		sreq := r.IsendOwned(right, 1, []float32{float32(r.ID())})
		rreq := r.Irecv(left, 1)
		// interior work would happen here
		got := rreq.Wait()
		sreq.Wait()
		if got[0] != float32(left) {
			t.Errorf("rank %d got %v from %d", r.ID(), got, left)
		}
	})
}

// TestBarrierSynchronizes: a reduction is the world's barrier — no rank
// leaves it before every rank has entered.
func TestBarrierSynchronizes(t *testing.T) {
	var before, after int32
	w := NewWorld(8)
	w.Run(func(r *Rank) {
		atomic.AddInt32(&before, 1)
		r.AllreduceMax(0)
		if atomic.LoadInt32(&before) != 8 {
			t.Error("reduction released before all ranks arrived")
		}
		atomic.AddInt32(&after, 1)
		r.AllreduceMax(0)
		if atomic.LoadInt32(&after) != 8 {
			t.Error("second reduction released early")
		}
	})
}

func TestAllreduceMaxRepeated(t *testing.T) {
	// back-to-back reductions must not bleed into each other
	w := NewWorld(4)
	w.Run(func(r *Rank) {
		for round := 1; round <= 20; round++ {
			got := r.AllreduceMax(float64(10*round + r.ID()))
			if got != float64(10*round+3) {
				t.Errorf("round %d: got %v", round, got)
			}
		}
	})
}

func TestAllreduceMax(t *testing.T) {
	w := NewWorld(5)
	w.Run(func(r *Rank) {
		got := r.AllreduceMax(float64(r.ID() * r.ID()))
		if got != 16 {
			t.Errorf("max = %v", got)
		}
		// second round with different values
		got = r.AllreduceMax(-float64(r.ID()))
		if got != 0 {
			t.Errorf("second max = %v", got)
		}
	})
}

func TestWorldSizeOne(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(r *Rank) {
		if got := r.AllreduceMax(3); got != 3 {
			t.Errorf("singleton max %v", got)
		}
		if got := r.AllreduceMax(-2); got != -2 {
			t.Errorf("second singleton max %v", got)
		}
	})
	if w.size != 1 {
		t.Fatal("size wrong")
	}
}

func TestManyRanksRing(t *testing.T) {
	// a 64-rank ring shift, the building block of the 2D halo exchange
	n := 64
	w := NewWorld(n)
	w.Run(func(r *Rank) {
		right := (r.ID() + 1) % n
		left := (r.ID() + n - 1) % n
		sreq := r.IsendOwned(right, 0, []float32{float32(r.ID())})
		got := r.Recv(left, 0)
		sreq.Wait()
		if got[0] != float32(left) {
			t.Errorf("rank %d ring shift got %v", r.ID(), got)
		}
	})
}
