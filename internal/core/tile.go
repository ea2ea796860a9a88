package core

import (
	"runtime"
	"sync"

	"swquake/internal/grid"
)

// Intra-rank tile parallelism (the paper's level below the MPI
// decomposition: a block is computed by many workers, not one). The engine
// splits each walk of the step into Config.Tiles sub-boxes and fans them
// across as many goroutines: each walks its own tile — velocity kernel,
// stress chain and sponge — keeping the chain and the sponge back from the
// seams it shares with another tile, and the seam bands are walked after
// the join (pipeline.go's walk). Every stage kernel is
// per-cell independent (see internal/fd/region.go), so the fan is bit-exact
// at any tile count.

// fan splits reg into one tile per worker and runs f on each concurrently —
// the first on the calling goroutine — returning when all tiles are done;
// fewer than two workers run f on reg inline, which is how a bare Step()
// outside Run stays single-threaded. Tiles are disjoint and cover reg
// exactly, so f must be safe under the per-cell-independence contract of
// the region kernels.
func fan(workers int, reg grid.Region, f func(grid.Region)) {
	regs := reg.SplitN(workers)
	if len(regs) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, sub := range regs[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(sub)
		}()
	}
	f(regs[0])
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

// startTiling fans the simulator's walks over its tiles for the duration of
// a run; the returned stop function makes them inline again.
func (s *Simulator) startTiling() func() {
	s.workers = s.tiles
	return func() { s.workers = 0 }
}
