package grid

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestWorkers: a block gets GOMAXPROCS goroutines, fewer so that none has
// under MinWorkerPoints cells, and one at most 2*MinWorkerPoints-1 cells —
// the service's 32x32x24 jobs among them.
func TestWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for _, c := range []struct {
		points int64
		want   int
	}{
		{0, 1}, {1, 1}, {32 * 32 * 24, 1}, {MinWorkerPoints, 1}, {2*MinWorkerPoints - 1, 1},
		{2 * MinWorkerPoints, 2}, {64 * 64 * 32, 4}, {7*MinWorkerPoints + 5, 7}, {192 * 192 * 96, 8},
	} {
		if got := Workers(c.points); got != c.want {
			t.Errorf("Workers(%d) at GOMAXPROCS 8 = %d, want %d", c.points, got, c.want)
		}
	}
	runtime.GOMAXPROCS(1)
	if got := Workers(192 * 192 * 96); got != 1 {
		t.Errorf("Workers at GOMAXPROCS 1 = %d, want 1", got)
	}
}

// TestSlabsPartition: the slabs are contiguous, in order, cover [lo, hi)
// exactly and differ in length by at most one; their count is capped at the
// range's length; each runs once.
func TestSlabsPartition(t *testing.T) {
	for _, c := range []struct{ lo, hi, n, want int }{
		{0, 9, 1, 1}, {0, 9, 2, 2}, {-2, 66, 4, 4}, {-2, 66, 3, 3}, {0, 3, 8, 3}, {5, 5, 4, 1}, {0, 100, 7, 7},
	} {
		what := fmt.Sprintf("Slabs(%d, %d, %d)", c.lo, c.hi, c.n)
		var mu sync.Mutex
		got := map[int][2]int{}
		Slabs(c.lo, c.hi, c.n, func(s, from, to int) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := got[s]; dup {
				t.Errorf("%s: slab %d ran twice", what, s)
			}
			got[s] = [2]int{from, to}
		})
		if len(got) != c.want {
			t.Fatalf("%s: %d slabs, want %d", what, len(got), c.want)
		}
		next := c.lo
		for s := 0; s < c.want; s++ {
			r := got[s]
			if r[0] != next || r[1] < r[0] {
				t.Fatalf("%s: slab %d is %v after %d", what, s, r, next)
			}
			if n := r[1] - r[0]; n < (c.hi-c.lo)/c.want || n > (c.hi-c.lo+c.want-1)/c.want {
				t.Errorf("%s: slab %d has %d of %d", what, s, n, c.hi-c.lo)
			}
			next = r[1]
		}
		if next != c.hi {
			t.Errorf("%s: slabs end at %d", what, next)
		}
	}
}

// TestSlabsRaisesASlabsPanic: a slab's panic reaches the caller once every
// slab has returned.
func TestSlabsRaisesASlabsPanic(t *testing.T) {
	var mu sync.Mutex
	ran := 0
	defer func() {
		if v := recover(); v != "slab 2" {
			t.Fatalf("recovered %v, want slab 2's panic", v)
		}
		if ran != 4 {
			t.Fatalf("%d slabs returned before the panic was raised, want 4", ran)
		}
	}()
	Slabs(0, 8, 4, func(s, _, _ int) {
		mu.Lock()
		ran++
		mu.Unlock()
		if s == 2 {
			panic("slab 2")
		}
	})
}

// TestNewFieldsAreZeroedFields: NewFields gives n distinct zeroed fields of
// the shape NewField does, split or not.
func TestNewFieldsAreZeroedFields(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, d := range []Dims{{Nx: 4, Ny: 5, Nz: 6}, {Nx: 64, Ny: 64, Nz: 32}} {
		fs := NewFields(9, d, 2)
		want := NewField(d, 2)
		seen := map[*float32]bool{}
		for i, f := range fs {
			if f.Dims != d || f.H != 2 || len(f.Data) != len(want.Data) || f.StrideX() != want.StrideX() ||
				f.StrideY() != want.StrideY() || f.Idx(1, 2, 3) != want.Idx(1, 2, 3) {
				t.Fatalf("%v: field %d is not NewField's shape", d, i)
			}
			if seen[&f.Data[0]] {
				t.Fatalf("%v: field %d shares its array", d, i)
			}
			seen[&f.Data[0]] = true
			for _, v := range f.Data {
				if v != 0 {
					t.Fatalf("%v: field %d not zeroed", d, i)
				}
			}
		}
	}
}
