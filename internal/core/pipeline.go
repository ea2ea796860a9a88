package core

import (
	"sync"
	"time"

	"swquake/internal/cgexec"
	"swquake/internal/decomp"
	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/plasticity"
	"swquake/internal/telemetry"
)

// This file is the step-pipeline engine: the ONE implementation of the
// per-step stage sequence (paper Fig. 3 / §6.5)
//
//	free surface (tractions) → velocity kernel → velocity-halo exchange →
//	free surface (velocities) → SLS-before → stress kernel → SLS-after →
//	source injection → plasticity → attenuation → sponge →
//	stress-halo exchange → record traces / PGV
//
// Every runner (serial Run, RunParallel) and every execution strategy of
// Fig. 7 (host kernels, the simulated SW26010 core group, compressed
// storage, tiled workers, overlapped halos) drives this sequence through
// two seams:
//
//   - Exchanger: what happens to ghost layers between the kernel phases —
//     nothing in a serial run, the simulated-MPI halo protocol under
//     RunParallel (including the compressed-mode decoded-ghost handshake).
//     The interface splits each exchange into Start (post the sends and
//     receives) and Finish (wait and unpack), which is what lets the
//     pipeline compute the block interior while velocity-halo messages are
//     in flight (Config.Overlap, paper §6.2);
//   - Backend: how the velocity/stress kernels execute over a Region —
//     the host kernels (which the pipeline fans across the tile pool) or the
//     tile-by-tile cgexec core group.
//
// Compressed storage plugs in around the same sequence: fields are decoded
// before the velocity phase, the velocities are round-tripped through the
// codecs before the stress phase reads them (Fig. 5b), and everything is
// re-encoded after the sponge.

// Exchanger updates ghost layers between the pipeline's kernel phases.
// Each exchange is split into a Start half, which posts the outgoing halo
// messages and the matching receives, and a Finish half, which blocks until
// the messages have arrived and unpacks them into the ghost layers. Between
// the velocity pair the pipeline runs what needs no ghost value: the
// owned-column free surface and, under Config.Overlap, the interior's
// stress-phase work. Finish reports whether ghost data may have changed, so
// compressed storage knows to re-encode exchanged planes.
//
// Start and Finish of one phase must be called in pairs, in order; an
// implementation may buffer state for the in-flight phase between them.
type Exchanger interface {
	// StartVelocity posts the velocity-halo exchange after the velocity
	// kernel. The wavefield's owned velocity boundary must be final when it
	// is called; ghost layers may still be mutated (free surface imaging)
	// between Start and Finish.
	StartVelocity(wf *fd.Wavefield, step int)
	// FinishVelocity completes the velocity-halo exchange: ghost layers are
	// up to date when it returns.
	FinishVelocity(wf *fd.Wavefield, step int) bool
	// StartStress posts the stress-halo exchange after the stress-phase
	// stages.
	StartStress(wf *fd.Wavefield, step int)
	// FinishStress completes the stress-halo exchange.
	FinishStress(wf *fd.Wavefield, step int) bool
}

// NoExchange is the serial Exchanger: ghost layers are governed by the free
// surface and the zero lateral boundaries alone, as a single-block run wants.
type NoExchange struct{}

func (NoExchange) StartVelocity(*fd.Wavefield, int)       {}
func (NoExchange) FinishVelocity(*fd.Wavefield, int) bool { return false }
func (NoExchange) StartStress(*fd.Wavefield, int)         {}
func (NoExchange) FinishStress(*fd.Wavefield, int) bool   { return false }

// Backend executes one kernel phase over a Region of the block — the seam
// between the step pipeline and the machine the kernels run on. The pipeline
// passes the whole block or, under Config.Overlap, the block interior and
// its boundary shells; with a tile pool it hands a backend one tile, or one
// chain block of a tile, at a time.
type Backend interface {
	Velocity(wf *fd.Wavefield, med *fd.Medium, dtdx float32, reg grid.Region)
	Stress(wf *fd.Wavefield, med *fd.Medium, dtdx float32, reg grid.Region)
}

// hostBackend runs the region kernels of internal/fd.
type hostBackend struct{}

func (hostBackend) Velocity(wf *fd.Wavefield, med *fd.Medium, dtdx float32, reg grid.Region) {
	fd.UpdateVelocityRegion(wf, med, dtdx, reg)
}

func (hostBackend) Stress(wf *fd.Wavefield, med *fd.Medium, dtdx float32, reg grid.Region) {
	fd.UpdateStressRegion(wf, med, dtdx, reg)
}

// cgBackend runs the kernels tile-by-tile through the simulated SW26010
// core group. The executor processes the whole block per call, so it needs
// the full region — guaranteed by Config.Validate, which rejects SunwaySim
// combined with compressed storage, Tiles and Overlap.
type cgBackend struct{ ex *cgexec.Executor }

func (b cgBackend) Velocity(wf *fd.Wavefield, med *fd.Medium, dtdx float32, reg grid.Region) {
	if reg != grid.Box(wf.D) {
		panic("core: cgexec backend requires full-block regions")
	}
	if err := b.ex.VelocityStep(wf, med, dtdx); err != nil {
		panic(err) // construction validated the block; cannot happen
	}
}

func (b cgBackend) Stress(wf *fd.Wavefield, med *fd.Medium, dtdx float32, reg grid.Region) {
	if reg != grid.Box(wf.D) {
		panic("core: cgexec backend requires full-block regions")
	}
	if err := b.ex.StressStep(wf, med, dtdx); err != nil {
		panic(err)
	}
}

// Step advances one full time step through the pipeline, then runs the
// post-step stages: step/time bookkeeping, station recording and PGV
// accumulation. When Cfg.Tracer is set, the whole step is also emitted as
// one trace span on the configured track. Outside Run there is no tile
// pool: a bare Step is single-threaded.
func (s *Simulator) Step() {
	var t0 time.Time
	if s.Cfg.Tracer != nil {
		t0 = timeNow()
	}
	s.stepPipeline(s.peers.ex)
	s.step++
	s.simTime += s.Cfg.Dt
	sw := s.stages.Stopwatch()
	s.rec.Record(s.WF)
	if s.pgv != nil {
		s.pgv.Update(s.WF)
	}
	sw.Lap(telemetry.StageRecord)
	if s.Cfg.Tracer != nil {
		s.Cfg.Tracer.Span(0, s.Cfg.TraceTID, "engine", "step", t0, timeNow().Sub(t0),
			map[string]any{"step": s.step, "sim_time_s": s.simTime})
	}
}

// planRegions chooses, once, where the stress chain of each cell runs
// relative to the velocity-halo wait. Without Config.Overlap nothing runs
// before it (an empty interior) and the whole block after it; with it the
// block interior — whose stencils read no ghost value — runs while the
// messages fly and the four boundary shells after.
func (s *Simulator) planRegions() {
	s.afterWait = []grid.Region{grid.Box(s.Cfg.Dims)}
	if s.Cfg.Overlap {
		s.interior, s.afterWait = decomp.InteriorShell(s.Cfg.Dims, fd.Halo)
	}
}

// stepPipeline runs the stage sequence once, and is the only place it is
// spelled. The velocity-halo exchange is POSTED right after the velocity
// kernel, whatever needs no ghost value runs while the messages fly — the
// owned-column free surface, the SLS snapshot and, under Config.Overlap, the
// interior's stress chain (paper §6.2) — and the regions whose stencils reach
// into the ghost layers run after the wait. Every choice of region lists
// (planRegions) gives the same bits as exchanging first and computing the
// whole block after:
//
//   - StartVelocity packs the y faces before the velocity free-surface pass,
//     so y-round bytes do not depend on what runs before the wait.
//   - The x-round (inside FinishVelocity) packs after the owned-column free
//     surface has run, so its k<0 entries are not what a pack before that
//     pass would have sent — but the receiver immediately re-images its
//     ghost frame from the unpacked k>=0 values (the four ImageVelocityCols
//     calls below), overwriting exactly those entries with the values it
//     would otherwise have been sent. (No stencil of an owned cell reads a
//     k<0 entry of a ghost column; the pass is what keeps every array byte
//     of a block, ghost layers included, equal to the serial run's.)
//   - The interior region keeps fd.Halo columns away from every block edge,
//     so interior stress stencils never read a ghost value, and the stage
//     chain (SLS, plasticity, attenuation) writes only the stress fields of
//     its own cells — which no stress stencil of another region reads — so
//     interior-then-shell ordering cannot change any result bit. The
//     velocity half of the sponge is what another region's stress stencils
//     would see from a region's cells, which is why it is not in the chain:
//     it runs over the block once every region is done.
//   - The SLS snapshot is taken over the whole block before any region is
//     computed: AfterRegion only ever reads it at the cells it updates.
//   - A block one worker owns alone (skewStrip) runs everything from the
//     velocity kernel to the velocity sponge as ONE walk (skewedPass): in
//     strips of columns and down each strip plane by plane, the kernel and
//     the owned-column imaging on plane i, the stress chain fd.Halo planes
//     and columns behind, the velocity sponge fd.Halo further. A stress
//     stencil reaches fd.Halo cells along x and y, never diagonally. So the
//     kernel at (i, j) reads stresses at planes >= i-Halo of its strip and
//     columns >= j-Halo of the strips before it, which the chain — Halo
//     behind on both axes — has not reached: last step's. The chain at
//     (i-Halo, j-Halo) reads velocities up to plane i and column j, just
//     written and imaged, and down to plane i-2*Halo and column j-2*Halo,
//     which the sponge has not damped; and every cell whose stencil reads a
//     velocity lies within Halo of it along one axis, so when the sponge —
//     Halo behind the chain, as the chain is behind the kernel — damps it,
//     all of them are done. Each cell sees the operands of velocity, chain
//     and sponge each run everywhere in turn. The exchanges around the walk
//     are a lone block's no-ops and its ghost frame holds zeros, so where
//     they fall relative to it changes nothing.
//   - The stress exchange stays back-to-back: the NEXT step's traction
//     free-surface pass reads stress ghosts, so there is no interior work
//     to hide it behind, and leaving sends outstanding would interleave
//     with the checkpoint gather's ordered per-pair queues.
//
// Every stage charges its wall time to the simulator's StageClock through a
// chained stopwatch (one time.Now per stage boundary, nothing at all when
// timing is disabled) — the per-kernel accounting of paper Fig. 7 / §7.1.
// Posting the velocity exchange is charged to halo_velocity; so is finishing
// it, except under Overlap, where that is the wait the interior was meant to
// hide and goes to halo_wait.
func (s *Simulator) stepPipeline(ex Exchanger) {
	s.countKernels()
	dtdx := float32(s.Cfg.Dt / s.Cfg.Dx)
	sw := s.stages.Stopwatch()
	d := s.Cfg.Dims
	h := fd.Halo
	if s.comp != nil {
		decode(s.comp.fields, s.WF.AllFields())
		sw.Lap(telemetry.StageCompression)
	}

	// velocity phase: its stencils read the traction ghosts alone
	fd.ImageTractionCols(s.WF, -h, d.Nx+h, -h, d.Ny+h)
	sw.Lap(telemetry.StageFreeSurface)
	cols := s.skewStrip()
	twoPass := cols == 0
	if twoPass {
		s.velocityPhase(grid.Box(d), dtdx)
		sw.Lap(telemetry.StageVelocity)
	} else {
		// every cell's step from the velocity kernel to the velocity sponge,
		// in one walk; what follows is what a block with no neighbour has
		// left: the exchanges' no-ops and a ghost frame of zeros
		s.skewedPass(cols, dtdx, &sw)
	}
	if s.comp != nil {
		// the stress kernel — and the neighbours — read the velocities exactly
		// as stored (the dstrqc side of Fig. 5b): this intra-step round trip
		// is where the paper's accuracy loss comes from
		encode(s.comp.velocity(), s.WF.VelocityFields())
		decode(s.comp.velocity(), s.WF.VelocityFields())
		sw.Lap(telemetry.StageCompression)
	}
	ex.StartVelocity(s.WF, s.step)
	sw.Lap(telemetry.StageHaloVelocity)

	// stress phase: its stencils read the velocity ghosts alone. The owned
	// columns are imaged now; the ghost frame after the wait
	if twoPass {
		fd.ImageVelocityCols(s.WF, 0, d.Nx, 0, d.Ny)
		sw.Lap(telemetry.StageFreeSurface)
	}
	if s.sls != nil {
		s.sls.Before(s.WF)
		sw.Lap(telemetry.StageAttenuation)
	}
	s.stressPhase(s.interior, dtdx, &sw)

	ex.FinishVelocity(s.WF, s.step)
	if s.Cfg.Overlap {
		sw.Lap(telemetry.StageHaloWait)
	} else {
		sw.Lap(telemetry.StageHaloVelocity)
	}
	// image the ghost frame now that exchanged columns are in place: the two
	// x strips (full y extent, covering the corners) and the two remaining
	// y strips tile exactly the frame beyond the owned columns
	fd.ImageVelocityCols(s.WF, -h, 0, -h, d.Ny+h)
	fd.ImageVelocityCols(s.WF, d.Nx, d.Nx+h, -h, d.Ny+h)
	fd.ImageVelocityCols(s.WF, 0, d.Nx, -h, 0)
	fd.ImageVelocityCols(s.WF, 0, d.Nx, d.Ny, d.Ny+h)
	sw.Lap(telemetry.StageFreeSurface)
	if twoPass {
		for _, reg := range s.afterWait {
			s.stressPhase(reg, dtdx, &sw)
		}
		s.spongeVelocities(grid.Box(d), &sw)
	}
	if s.comp != nil {
		// recorders and checkpoints observe exactly the stored state
		encode(s.comp.fields, s.WF.AllFields())
		decode(s.comp.fields, s.WF.AllFields())
		sw.Lap(telemetry.StageCompression)
	}
	ex.StartStress(s.WF, s.step)
	changed := ex.FinishStress(s.WF, s.step)
	sw.Lap(telemetry.StageHaloStress)
	if changed && s.comp != nil {
		// exchanged ghost planes reach storage for the next step's decode
		encode(s.comp.stress(), s.WF.StressFields())
		sw.Lap(telemetry.StageCompression)
	}
}

// velocityPhase runs the velocity kernel over one Region, fanned across the
// tile pool (nil-safe: a serial simulator runs inline).
func (s *Simulator) velocityPhase(reg grid.Region, dtdx float32) {
	s.pool.fan(reg, func(r grid.Region) { s.backend.Velocity(s.WF, s.Med, dtdx, r) })
}

// chainBlockPoints sizes the x-blocks stressPhase walks: a block is as many
// whole i-planes of its region as hold at most this many cells (one plane
// at least). The chain's six stages all read and write the block's six
// stress rows, so those — 6 fields x 4 B x 32768 cells = 768 KB — must
// still be in L2 when the last stage runs, beside the ~25 operand rows
// (velocities, moduli, plasticity parameters, Q factors) that stream through
// once: that fits the 1-2 MB per-core L2 of the hosts we run on with room
// for the streams. It is one i-plane of a 192x192x96 block — where blocks
// of 1 and 2 planes measured alike, 4 and 8 slower, the whole region
// slowest (DESIGN.md §3.1) — and the whole of a 32x32x24 one, so grids that
// fit a cache as they are pay nothing.
const chainBlockPoints = 1 << 15

// chainBlockPlanes overrides the block size in i-planes; only tests set it.
var chainBlockPlanes int

// stressPhase runs the stress-side stage chain — stress kernel, SLS memory
// update, source injection, plasticity, attenuation, the stress half of the
// sponge — over one Region, and is the only place that order is spelled.
// The pipeline calls it on the whole block or, under Config.Overlap, on the
// interior and then on each boundary shell; an empty region is no work and no
// observation.
//
// The region is walked in x-blocks (chainBlockPoints) and the whole chain
// runs on a block before the next is touched: every stage but the stress
// kernel reads and writes only the six stresses of the cell it stands on,
// and the stress kernel reads velocities, which nothing here writes — so
// the per-cell independence that makes tiles and interior/shell ordering
// exact makes block order exact too. With a tile pool the fan is outermost:
// each worker walks its own tile block by block, one fork-join for the whole
// chain. Within a block sources are injected in list order, so co-located
// sources keep theirs. The core-group executor computes a block whole, so it
// gets the region as one block.
//
// The velocity half of the sponge is NOT part of the chain: neighbouring
// cells' stress stencils read the velocities, so spongeVelocities damps them
// once every block of the region is done.
//
// Stage times are tallied per block and per worker and observed once per
// stage per call, scaled to the call's wall time.
func (s *Simulator) stressPhase(reg grid.Region, dtdx float32, sw *telemetry.Stopwatch) {
	if reg.Empty() {
		return
	}
	tally := sw.Tally()
	var mu sync.Mutex
	s.pool.fan(reg, func(tile grid.Region) {
		planes := tile.I1 - tile.I0 // the core-group executor's block: all of it
		switch {
		case s.cgx != nil:
		case chainBlockPlanes > 0:
			planes = chainBlockPlanes
		default:
			planes = max(1, chainBlockPoints/(tile.Nj()*tile.Nk()))
		}
		t := tally.Fork()
		var yielded int64
		for b := tile; b.I0 < tile.I1; b.I0 = b.I1 {
			b.I1 = min(b.I0+planes, tile.I1)
			yielded += s.stressChain(b, dtdx, &t)
		}
		mu.Lock()
		tally.Merge(&t)
		s.yielded += yielded
		mu.Unlock()
	})
	sw.LapTallied(&tally)
}

// skewStripPoints sizes the strips of the skewed pass: as many columns as
// hold at most this many cells (one at least). Down a strip some 39
// plane-strips stay live — each stress from the furthest plane ahead the
// kernel reads it at back to the chain's, each velocity from the kernel's
// plane back to the sponge's — beside the medium rows streaming through: at
// 64 columns of a 96-deep block ~1 MB, inside the L2 of the hosts we run on.
// Wider strips measured slower, whole planes slowest (DESIGN.md §3.1).
const skewStripPoints = 3 << 11

// skewStripCols overrides the strip width in columns, whatever the block's
// size; negative means never skew. Only tests set it.
var skewStripCols int

// skewStrip returns the strip width in columns where the step runs as the
// skewed pass, 0 where it runs two-pass: the block must be one worker's —
// plain storage, host kernels, no neighbour, no tile pool, no shells, no SLS
// snapshot — and more than one chain block, which is the two-pass order
// exactly and what a cache-resident grid keeps.
func (s *Simulator) skewStrip() int {
	a := s.Cfg.Attenuation
	if s.pg.Size() > 1 || s.comp != nil || s.cgx != nil || s.tiles > 1 || s.Cfg.Overlap || (a.Enabled && a.UseSLS) {
		return 0
	}
	d := s.Cfg.Dims
	switch {
	case skewStripCols != 0:
		return max(0, skewStripCols)
	case d.Points() <= chainBlockPoints:
		return 0
	}
	return max(1, skewStripPoints/d.Nz)
}

// skewedPass is one worker's velocity → stress pass over the whole block, so
// that the nine wavefield arrays cross the bus once a step, not twice: strips
// of cols columns outermost, down each strip the i-planes, the velocity
// kernel and the owned-column imaging on plane i, stressChain fd.Halo planes
// and columns behind, the velocity sponge fd.Halo further (stepPipeline's
// header has the ordering argument). The first strip's lagging ranges start,
// and the last strip's end, at the block's edge, so each stage covers every
// cell once. Stage times are tallied and observed once per stage, the
// sponge's velocity half apart from the chain's, as two-pass observes them.
func (s *Simulator) skewedPass(cols int, dtdx float32, sw *telemetry.Stopwatch) {
	const h = fd.Halo
	box := grid.Box(s.Cfg.Dims)
	tally := sw.Tally()
	damp := tally.Fork()
	var yielded int64
	for j0 := 0; j0 < box.J1; j0 += cols {
		j1 := min(j0+cols, box.J1)
		// the strip's columns on plane i-lag, lag columns behind
		lagging := func(i, lag int) grid.Region {
			r := box
			r.I0, r.I1 = max(0, i-lag), min(i-lag+1, box.I1)
			r.J0 = max(0, j0-lag)
			if j1 < box.J1 {
				r.J1 = max(0, j1-lag)
			}
			return r
		}
		for i := 0; i < box.I1+2*h; i++ {
			if v := lagging(i, 0); !v.Empty() {
				s.backend.Velocity(s.WF, s.Med, dtdx, v)
				tally.Lap(telemetry.StageVelocity)
				fd.ImageVelocityCols(s.WF, v.I0, v.I1, v.J0, v.J1)
				tally.Lap(telemetry.StageFreeSurface)
			}
			if c := lagging(i, h); !c.Empty() {
				yielded += s.stressChain(c, dtdx, &tally)
			}
			if v := lagging(i, 2*h); s.sponge != nil && !v.Empty() {
				s.sponge.ApplyVelocityRegion(s.WF, v)
				tally.LapTo(&damp, telemetry.StageSponge)
			}
		}
	}
	s.yielded += yielded
	sw.LapTallied(&tally, &damp)
}

// stressChain runs the stress-side stages on one block and returns the
// number of cells that yielded.
func (s *Simulator) stressChain(b grid.Region, dtdx float32, t *telemetry.StageTally) int64 {
	s.backend.Stress(s.WF, s.Med, dtdx, b)
	t.Lap(telemetry.StageStress)
	if s.sls != nil {
		s.sls.AfterRegion(s.WF, s.Cfg.Dt, b)
		t.Lap(telemetry.StageAttenuation)
	}
	s.srcs.InjectRegion(s.WF, s.simTime, s.Cfg.Dt, s.Cfg.Dx, b)
	t.Lap(telemetry.StageSource)
	var yielded int64
	if s.Plas != nil {
		yielded = int64(plasticity.ApplyRegion(s.WF, s.Plas, s.Cfg.Dt, b))
		t.Lap(telemetry.StagePlasticity)
	}
	if s.atten != nil {
		s.atten.ApplyRegion(s.WF, b)
		t.Lap(telemetry.StageAttenuation)
	}
	if s.sponge != nil {
		s.sponge.ApplyStressRegion(s.WF, b)
		t.Lap(telemetry.StageSponge)
	}
	return yielded
}

// spongeVelocities applies the velocity half of the sponge over a region
// whose stress phase is complete.
func (s *Simulator) spongeVelocities(reg grid.Region, sw *telemetry.Stopwatch) {
	if s.sponge != nil {
		s.pool.fan(reg, func(r grid.Region) { s.sponge.ApplyVelocityRegion(s.WF, r) })
		sw.Lap(telemetry.StageSponge)
	}
}
