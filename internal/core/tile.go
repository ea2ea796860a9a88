package core

import (
	"runtime"
	"sync"

	"swquake/internal/grid"
)

// Intra-rank tile parallelism (the paper's level below the MPI
// decomposition: a block is computed by many workers, not one). The engine
// splits a phase's Region into Config.Tiles sub-boxes and fans them across
// a bounded pool of worker goroutines, joining before the next phase: one
// fan for the velocity kernel, one for the whole stress-side chain (each
// worker runs every stage on its own tile, pipeline.go), one for the
// velocity half of the sponge. Every stage kernel is per-cell independent
// (see internal/fd/region.go), so the fan is bit-exact at any tile count.

// tilePool is a bounded pool of worker goroutines shared by all fanned
// stages of one simulator. It lives only while a run is stepping
// (Simulator.startTiling), so idle simulators hold no goroutines. All
// methods are nil-safe; a nil pool executes inline, which is how a bare
// Step() outside Run stays single-threaded.
type tilePool struct {
	workers int
	tasks   chan func()
}

func newTilePool(workers int) *tilePool {
	p := &tilePool{workers: workers, tasks: make(chan func())}
	for w := 0; w < workers; w++ {
		go func() {
			for t := range p.tasks {
				t()
			}
		}()
	}
	return p
}

// Close stops the workers. The pool must be idle (no fan in flight).
func (p *tilePool) Close() {
	if p != nil {
		close(p.tasks)
	}
}

// fan splits reg into one tile per worker and runs f on each concurrently,
// returning when all tiles are done. Tiles are disjoint and cover reg
// exactly, so f must be safe under the per-cell-independence contract of
// the region kernels.
func (p *tilePool) fan(reg grid.Region, f func(grid.Region)) {
	if reg.Empty() {
		return
	}
	if p == nil {
		f(reg)
		return
	}
	regs := reg.SplitN(p.workers)
	if len(regs) == 1 {
		f(regs[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(regs))
	for _, sub := range regs {
		sub := sub
		p.tasks <- func() {
			defer wg.Done()
			f(sub)
		}
	}
	wg.Wait()
}

// autoTileMinPoints is the fewest cells AutoTiles gives a tile. Below it the
// fork-joins of a step cost more than the kernels they split: with two tiles
// a 32x32x24 block (12288 cells a tile) runs at 0.8-0.95x of serial, a
// 64x62x24 one (47616) at 0.93-1.3x, an 80x80x32 one (102400) at 1.5x.
const autoTileMinPoints = 1 << 15

// effectiveTiles resolves Config.Tiles for a block of `points` cells in a
// run spread over `ranks` simulated MPI ranks: AutoTiles becomes
// GOMAXPROCS/ranks, less where that would leave a tile under
// autoTileMinPoints cells; explicit counts pass through; anything below 1
// means single-threaded.
func effectiveTiles(cfgTiles, ranks int, points int64) int {
	t := cfgTiles
	if t == AutoTiles {
		t = int(min(int64(runtime.GOMAXPROCS(0)/ranks), points/autoTileMinPoints))
	}
	if t < 1 {
		t = 1
	}
	return t
}

// startTiling attaches a live worker pool to the simulator for the duration
// of a run; the returned stop function drains it. With tiles <= 1, or under
// the cgexec backend (which needs full-block calls), it is a no-op.
func (s *Simulator) startTiling() func() {
	if s.tiles <= 1 || s.cgx != nil {
		return func() {}
	}
	s.pool = newTilePool(s.tiles)
	return func() {
		s.pool.Close()
		s.pool = nil
	}
}
