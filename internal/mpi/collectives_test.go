package mpi

import "testing"

func TestBcast(t *testing.T) {
	w := NewWorld(5)
	w.Run(func(r *Rank) {
		var payload []float32
		if r.ID() == 2 {
			payload = []float32{7, 8, 9}
		}
		got := r.Bcast(2, payload)
		if len(got) != 3 || got[0] != 7 || got[2] != 9 {
			t.Errorf("rank %d bcast got %v", r.ID(), got)
		}
		// mutating the received copy must not affect others
		got[0] = float32(r.ID())
	})
}

func TestGather(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(r *Rank) {
		data := []float32{float32(r.ID()), float32(r.ID() * 10)}
		out := r.Gather(0, data)
		if r.ID() != 0 {
			if out != nil {
				t.Errorf("non-root got data")
			}
			return
		}
		for src, d := range out {
			if len(d) != 2 || d[0] != float32(src) || d[1] != float32(src*10) {
				t.Errorf("gather[%d] = %v", src, d)
			}
		}
	})
}

func TestCollectivesComposable(t *testing.T) {
	// bcast + gather + allreduce back-to-back exercise tag separation
	w := NewWorld(3)
	w.Run(func(r *Rank) {
		var seed []float32
		if r.ID() == 0 {
			seed = []float32{5}
		}
		v := r.Bcast(0, seed)[0]
		m := r.AllreduceMax(float64(v) * float64(r.ID()+1))
		if m != 15 {
			t.Errorf("max %v", m)
		}
		out := r.Gather(1, []float32{float32(m)})
		if r.ID() == 1 && (len(out) != 3 || out[2][0] != 15) {
			t.Errorf("gather %v", out)
		}
	})
}
