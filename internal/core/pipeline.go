package core

import (
	"sync"
	"time"

	"swquake/internal/cgexec"
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
//     overlapped pipeline compute the block interior while velocity-halo
//     messages are in flight (paper §6.2);
//   - Backend: how the velocity/stress kernels execute over a Region —
//     the host kernels (which the pipeline fans across the tile pool) or the
//     tile-by-tile cgexec core group.
//
// Compressed storage plugs in around the same sequence: fields are decoded
// before the velocity phase, the velocities are round-tripped through the
// codecs before the stress phase reads them (Fig. 5b), and everything is
// re-encoded after the sponge, slab by slab.

// Exchanger updates ghost layers between the pipeline's kernel phases.
// Each exchange is split into a Start half, which posts the outgoing halo
// messages and the matching receives, and a Finish half, which blocks until
// the messages have arrived and unpacks them into the ghost layers. The
// barrier pipeline calls Start and Finish back to back; the overlapped
// pipeline runs interior stress-phase work between the velocity pair.
// Finish reports whether ghost data may have changed, so compressed storage
// knows to re-encode exchanged planes.
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
// between the step pipeline and the machine the kernels run on. The barrier
// pipeline passes full-x/y slab regions; the overlapped pipeline passes the
// block interior and its boundary shells; with a tile pool the pipeline
// hands a backend one tile, or one chain block of a tile, at a time.
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
// combined with compressed (slabbed) storage, Tiles and Overlap.
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

// stepWith advances one full time step through the pipeline, then runs the
// post-step stages every runner shares: step/time bookkeeping, station
// recording and PGV accumulation. When Cfg.Tracer is set, the whole step is
// also emitted as one trace span on the configured track.
func (s *Simulator) stepWith(ex Exchanger) {
	var t0 time.Time
	if s.Cfg.Tracer != nil {
		t0 = timeNow()
	}
	s.stepPipeline(ex)
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

// stepPipeline runs the stage sequence once. Slabs are the whole depth for
// plain storage and CompressionConfig.SlabHeight in compressed mode, where
// each slab is decoded, computed on and re-encoded (Fig. 5c). When
// Config.Overlap is set (uncompressed only, enforced by Validate) the
// overlapped variant below runs instead.
//
// Every stage charges its wall time to the simulator's StageClock through a
// chained stopwatch (one time.Now per stage boundary, nothing at all when
// timing is disabled) — the per-kernel accounting of paper Fig. 7 / §7.1.
func (s *Simulator) stepPipeline(ex Exchanger) {
	s.countKernels()
	dtdx := float32(s.Cfg.Dt / s.Cfg.Dx)
	sw := s.stages.Stopwatch()
	if s.Cfg.Overlap && s.comp == nil {
		s.stepOverlapped(ex, dtdx, &sw)
		return
	}
	d := s.Cfg.Dims
	nz := d.Nz
	slab := nz
	if s.comp != nil {
		slab = s.comp.slab
		s.compDecodeAll()
		sw.Lap(telemetry.StageCompression)
	}

	// velocity phase: its stencils read the traction ghosts alone
	h := fd.Halo
	fd.ImageTractionCols(s.WF, -h, d.Nx+h, -h, d.Ny+h)
	sw.Lap(telemetry.StageFreeSurface)
	for k0 := 0; k0 < nz; k0 += slab {
		s.velocityPhase(grid.FullXY(d, k0, minI(k0+slab, nz)), dtdx)
	}
	sw.Lap(telemetry.StageVelocity)
	if s.comp != nil {
		s.compRoundtripVelocities()
		sw.Lap(telemetry.StageCompression)
	}
	ex.StartVelocity(s.WF, s.step)
	ex.FinishVelocity(s.WF, s.step)
	sw.Lap(telemetry.StageHaloVelocity)

	// stress phase: its stencils read the velocity ghosts alone
	fd.ImageVelocityCols(s.WF, -h, d.Nx+h, -h, d.Ny+h)
	sw.Lap(telemetry.StageFreeSurface)
	if s.sls != nil {
		s.sls.Before(s.WF)
		sw.Lap(telemetry.StageAttenuation)
	}
	for k0 := 0; k0 < nz; k0 += slab {
		// a slab's velocities are damped before the next slab's stress
		// stencils read them, as compressed storage has always had it
		reg := grid.FullXY(d, k0, minI(k0+slab, nz))
		s.stressPhase(reg, dtdx, &sw)
		s.spongeVelocities(reg, &sw)
	}
	if s.comp != nil {
		s.compStoreAll()
		sw.Lap(telemetry.StageCompression)
	}
	ex.StartStress(s.WF, s.step)
	changed := ex.FinishStress(s.WF, s.step)
	sw.Lap(telemetry.StageHaloStress)
	if changed && s.comp != nil {
		s.compEncodeStressGhosts()
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
// The barrier pipeline calls it per z-slab over the full x/y plane; the
// overlapped pipeline calls it on the interior and then on each boundary
// shell.
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

// stepOverlapped is the communication-hiding variant of the stage sequence
// (paper §6.2): the velocity-halo exchange is POSTED right after the
// velocity kernel, the stress-phase stages run on the block interior —
// which reads only owned velocity values — while the messages fly, and the
// boundary shells (whose stencils reach into the ghost layers) run only
// after the wait. It is bit-identical to the barrier pipeline:
//
//   - StartVelocity packs the y faces before the velocity free-surface pass,
//     exactly when the barrier exchange would, so y-round bytes match.
//   - The x-round (inside FinishVelocity) packs after the owned-column free
//     surface has run, so its k<0 entries differ from barrier mode on the
//     wire — but the receiver immediately re-images its ghost frame from
//     the unpacked k>=0 values (the four ImageVelocityCols calls below),
//     overwriting exactly those entries with the values barrier mode would
//     have delivered.
//   - The interior region keeps fd.Halo columns away from every block edge,
//     so interior stress stencils never read a ghost value, and the stage
//     chain (SLS, plasticity, attenuation) writes only the stress fields of
//     its own cells — which no stress stencil of another region reads — so
//     interior-then-shell ordering cannot change any result bit. The
//     velocity half of the sponge is what shell stress stencils would see
//     from interior cells, which is why it is not in the chain: it runs on
//     the whole block once, after the shells — exactly where the barrier
//     pipeline runs it.
//   - The stress exchange stays back-to-back: the NEXT step's traction
//     free-surface pass reads stress ghosts, so there is no interior work
//     to hide it behind, and leaving sends outstanding would interleave
//     with the checkpoint gather's ordered per-pair queues.
func (s *Simulator) stepOverlapped(ex Exchanger, dtdx float32, sw *telemetry.Stopwatch) {
	d := s.Cfg.Dims
	h := fd.Halo

	fd.ImageTractionCols(s.WF, -h, d.Nx+h, -h, d.Ny+h)
	sw.Lap(telemetry.StageFreeSurface)
	s.velocityPhase(grid.Box(d), dtdx)
	sw.Lap(telemetry.StageVelocity)
	ex.StartVelocity(s.WF, s.step)
	sw.Lap(telemetry.StageHaloVelocity)

	// owned-column free surface; the ghost frame is imaged after the wait
	fd.ImageVelocityCols(s.WF, 0, d.Nx, 0, d.Ny)
	sw.Lap(telemetry.StageFreeSurface)
	if s.sls != nil {
		// full snapshot, including boundary cells: After only ever reads the
		// snapshot at the cells it updates, so taking it before the shells
		// are computed is safe
		s.sls.Before(s.WF)
		sw.Lap(telemetry.StageAttenuation)
	}
	s.stressPhase(s.ovInterior, dtdx, sw)

	ex.FinishVelocity(s.WF, s.step)
	sw.Lap(telemetry.StageHaloWait)
	// image the ghost frame now that exchanged columns are in place: the two
	// x strips (full y extent, covering the corners) and the two remaining
	// y strips tile exactly the frame beyond the owned columns
	fd.ImageVelocityCols(s.WF, -h, 0, -h, d.Ny+h)
	fd.ImageVelocityCols(s.WF, d.Nx, d.Nx+h, -h, d.Ny+h)
	fd.ImageVelocityCols(s.WF, 0, d.Nx, -h, 0)
	fd.ImageVelocityCols(s.WF, 0, d.Nx, d.Ny, d.Ny+h)
	sw.Lap(telemetry.StageFreeSurface)
	for _, shell := range s.ovShells {
		s.stressPhase(shell, dtdx, sw)
	}
	s.spongeVelocities(grid.Box(d), sw)

	ex.StartStress(s.WF, s.step)
	ex.FinishStress(s.WF, s.step)
	sw.Lap(telemetry.StageHaloStress)
}
