package grid

import (
	"runtime"
	"sync"
)

// MinWorkerPoints is the fewest cells a block gives each goroutine that
// shares a pass over it — the walk's workers under AutoTiles and the
// set-up's slabs alike. Below it the goroutines cost more than the work they
// split: two walk workers ran a 32x32x24 block (12288 cells each) at
// 0.8-0.95x of serial, a 64x62x24 one (47616) at 0.93-1.3x, an 80x80x32 one
// (102400) at 1.5x.
const MinWorkerPoints = 1 << 15

// Workers is how many goroutines share a set-up pass over a block of
// `points` cells: GOMAXPROCS, fewer where that would give one of them under
// MinWorkerPoints cells, and never fewer than one.
func Workers(points int64) int {
	return int(max(1, min(int64(runtime.GOMAXPROCS(0)), points/MinWorkerPoints)))
}

// Slabs splits [lo, hi) into n contiguous slabs as even as can be (n is
// capped at hi-lo), runs f(s, from, to) on slab s = [from, to) — the slabs
// after the first each on a goroutine of its own, the first on the caller's
// — and returns once every slab has. One slab runs f on the caller's
// goroutine alone. A slab's panic is raised again on the caller's goroutine,
// after every slab has returned.
func Slabs(lo, hi, n int, f func(s, from, to int)) {
	n = max(1, min(n, hi-lo))
	bound := func(s int) int { return lo + s*(hi-lo)/n }
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		raised any
	)
	run := func(s int) {
		defer func() {
			if v := recover(); v != nil {
				mu.Lock()
				raised = v
				mu.Unlock()
			}
		}()
		f(s, bound(s), bound(s+1))
	}
	for s := 1; s < n; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(s)
		}()
	}
	run(0)
	wg.Wait()
	if raised != nil {
		panic(raised)
	}
}

// NewFields allocates n zeroed fields of the given interior dims and halo h,
// spread over Workers(d.Points()) goroutines so that the runtime zeroes them
// at once.
func NewFields(n int, d Dims, h int) []*Field {
	fs := make([]*Field, n)
	Slabs(0, n, Workers(d.Points()), func(_, from, to int) {
		for i := from; i < to; i++ {
			fs[i] = NewField(d, h)
		}
	})
	return fs
}
