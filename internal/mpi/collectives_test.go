package mpi

import "testing"

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
	// gather + allreduce + gather back-to-back exercise tag separation
	w := NewWorld(3)
	w.Run(func(r *Rank) {
		if in := r.Gather(0, []float32{5}); r.ID() == 0 && (len(in) != 3 || in[2][0] != 5) {
			t.Errorf("gather %v", in)
		}
		m := r.AllreduceMax(5 * float64(r.ID()+1))
		if m != 15 {
			t.Errorf("max %v", m)
		}
		out := r.Gather(1, []float32{float32(m)})
		if r.ID() == 1 && (len(out) != 3 || out[2][0] != 15) {
			t.Errorf("gather %v", out)
		}
	})
}
