package core

import (
	"runtime"
	"sync/atomic"

	"swquake/internal/grid"
)

// Intra-rank parallelism (the paper's level below the MPI decomposition: a
// core group's block is computed by many CPEs, neighbours trading halos and
// working on instead of meeting at a barrier). The walk's strips are the
// workers' units: strip k goes to worker k mod Config.Tiles, and the workers
// walk theirs at once as a wavefront, each strip a plane iteration behind
// the one before it (pipeline.go's walk). The lag rule the serial walk keeps
// across strips is the only dependency, so the wavefront is bit-exact at any
// worker count.

// front is a wavefront's progress: per strip, the plane iterations it has
// finished (stored by its worker as it finishes each), each counter on a
// cache line of its own so that publishing one does not slow reading another.
type front []struct {
	done atomic.Int64
	_    [56]byte
}

// wait returns once strip k has finished n plane iterations, yielding the
// processor until it has, and reports whether it had to.
func (f front) wait(k int, n int64) (waited bool) {
	for ; f[k].done.Load() < n; waited = true {
		runtime.Gosched()
	}
	return waited
}

// effectiveTiles resolves Config.Tiles for a block of `points` cells in a
// run spread over `ranks` simulated MPI ranks: an explicit count passes
// through; 0 (AutoTiles alike) is derived, on GOMAXPROCS/ranks of the host's
// cores (DerivedTiles).
func effectiveTiles(cfgTiles, ranks int, points int64) int {
	if cfgTiles > 0 {
		return cfgTiles
	}
	return DerivedTiles(runtime.GOMAXPROCS(0)/ranks, points)
}

// DerivedTiles is the walk's worker count for a block of `points` cells on
// `cores` of the host's cores: the rule set-up shares its passes by
// (grid.Workers: no worker under grid.MinWorkerPoints cells), at most cores
// and never below one. A run derives it on GOMAXPROCS divided by its rank
// count; a service running several jobs at once derives each job's on the
// job's share of the cores.
func DerivedTiles(cores int, points int64) int {
	return max(1, min(cores, grid.Workers(points)))
}

// startTiling spreads the simulator's walks over its workers for the
// duration of a run; the returned stop function makes them inline again.
func (s *Simulator) startTiling() func() {
	s.workers = s.tiles
	return func() { s.workers = 0 }
}
