package core

import (
	"cmp"
	"math"
	"sync"

	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/plasticity"
	"swquake/internal/telemetry"
)

// This file is the step-pipeline engine: the ONE implementation of the
// per-step stage sequence (paper Fig. 3 / §6.5)
//
//	free surface (tractions) → velocity kernel → free surface (velocities) →
//	store* → velocity-halo exchange → SLS snapshot → stress kernel → SLS-after
//	→ source injection → plasticity → attenuation → sponge → store* →
//	max |v| / PGV → stress-halo exchange → record traces
//
// Every runner (serial Run, RunParallel) and every execution strategy
// (compressed storage, whose codec round trips are the starred stores;
// wavefront workers; overlapped halos) drives this sequence as one walk in
// strips and slabs (stripWalk) of the host kernels, in three passes around
// the velocity-halo exchange (planWalks), through one seam: the Exchanger
// (ghost layers). The simulated SW26010 core group is no part of it: its
// tally is a function of the block (cgexec.Tally).

// Exchanger updates ghost layers between the pipeline's kernel phases.
// Each exchange is split into a Start half, which posts the outgoing halo
// messages and the matching receives, and a Finish half, which blocks until
// the messages have arrived and unpacks them into the ghost layers. Between
// the velocity pair the pipeline walks what needs no ghost value: under
// Config.Overlap, and on a lone block, the interior (paper §6.2).
//
// Start and Finish of one phase must be called in pairs, in order; an
// implementation may buffer state for the in-flight phase between them.
type Exchanger interface {
	// StartVelocity posts the velocity-halo exchange after the velocity
	// kernel. The wavefield's owned velocity boundary must be final, and
	// imaged above the free surface, when it is called.
	StartVelocity(wf *fd.Wavefield, step int)
	// FinishVelocity completes the velocity-halo exchange: ghost layers are
	// up to date when it returns.
	FinishVelocity(wf *fd.Wavefield, step int)
	// StartStress posts the stress-halo exchange after the stress-phase
	// stages.
	StartStress(wf *fd.Wavefield, step int)
	// FinishStress completes the stress-halo exchange.
	FinishStress(wf *fd.Wavefield, step int)
}

// NoExchange is the serial Exchanger: ghost layers are governed by the free
// surface and the zero lateral boundaries alone, as a single-block run wants.
type NoExchange struct{}

func (NoExchange) StartVelocity(*fd.Wavefield, int)  {}
func (NoExchange) FinishVelocity(*fd.Wavefield, int) {}
func (NoExchange) StartStress(*fd.Wavefield, int)    {}
func (NoExchange) FinishStress(*fd.Wavefield, int)   {}

// Step advances one full time step through the pipeline — which also takes
// the block's max |v| and folds the PGV peaks — then runs the post-step
// stages: step/time bookkeeping and station recording. Outside Run there
// are no workers: a bare Step is single-threaded.
func (s *Simulator) Step() {
	s.stepPipeline(s.peers.ex)
	s.step++
	s.simTime += s.Cfg.Dt
	sw := s.stages.Stopwatch()
	s.rec.Record(s.WF)
	sw.Lap(telemetry.StageRecord)
}

// pass is what one walk covers, as lists of disjoint non-empty boxes: where
// it runs the velocity kernel (and the imaging), the stress chain, and the
// velocity half of the sponge with the scans of the finished velocities.
type pass struct{ vel, chain, sponge []grid.Region }

// planWalks chooses, once, the step's three passes around the velocity-halo
// exchange. The interior is the block less fd.Halo cells at each face with a
// neighbour (decomp's Interior): the chain there reads no ghost value, and
// the sponge reads no chain result outside it a further fd.Halo in. The
// walk before the post moves the ring of velocities the neighbours are sent;
// the walk while the messages fly does the interior; the walk after the wait
// does the rest. A rank without Overlap computes no stress before the wait,
// so its interior is empty; a lone block has no ring. It also lists the
// ghost frame's columns, whose tractions the step head images.
func (s *Simulator) planWalks() {
	box := grid.Box(s.Cfg.Dims)
	frame := box
	frame.I0, frame.I1, frame.J0, frame.J1 = -fd.Halo, box.I1+fd.Halo, -fd.Halo, box.J1+fd.Halo
	s.frame = frame.Minus(box)
	var in1, in2 grid.Region
	if s.Cfg.Overlap || s.pg.Size() == 1 {
		in1, in2 = s.pg.Interior(s.id, fd.Halo), s.pg.Interior(s.id, 2*fd.Halo)
	}
	s.walks[0] = pass{vel: box.Minus(in1)}
	interior := clip([]grid.Region{in1}, box)
	s.walks[1] = pass{vel: interior, chain: interior, sponge: clip([]grid.Region{in2}, box)}
	s.walks[2] = pass{chain: box.Minus(in1), sponge: box.Minus(in2)}
}

// stepPipeline runs the stage sequence once, and is the only place it is
// spelled: three walks (planWalks) around the velocity-halo exchange, each
// the same loop (walk). Every choice of passes, workers and geometry gives
// the bits of running each stage over the whole block in turn, by one lag
// rule. A stencil reaches fd.Halo cells along x, y or z, never diagonally; the
// velocity kernel at a cell reads the stresses within fd.Halo of it, the
// stress kernel the velocities, and the chain's other stages and the sponge
// touch their own cell alone. So each cell sees its operands as the
// whole-block order leaves them if, for any two cells within fd.Halo of each
// other, the velocity kernel at the one runs before the chain at the other,
// and the chain at the one before the sponge damps the other's velocities.
// Everything in the step keeps that rule:
//
//   - Down a strip the chain runs at least fd.Halo planes behind the kernel
//     and the sponge as far behind the chain; across strips both run fd.Halo
//     columns behind, the first strip's lagging ranges starting, and the
//     last's ending, at the edge of what is walked.
//   - Workers walk the strips at once, as a wavefront: strip k enters its
//     n-th slab, at plane i, only once strip k-1 has finished its n-th. With
//     P planes a slab and the lag L = max(fd.Halo, P) >= fd.Halo, k-1 has
//     then run the kernel through plane i+P-1, the chain through i-L+P-1 and
//     the sponge through i-2L+P-1, and what it runs next lies past those. So
//     k's chain reads k-1's velocities (at most fd.Halo planes past its own)
//     after k-1 wrote them; k's sponge damps velocities k-1's chain reads (at
//     most fd.Halo planes past its own) after it read them; and k-1's kernel
//     reads stresses at most fd.Halo planes back, which k's chain has not
//     rewritten yet. All else k-1 writes is in columns behind k's. Nothing
//     runs from k back to k-1, so that wait is the whole bound; each strip
//     waits only on the one before it and each worker walks its strips in
//     order, so the wavefront always moves.
//   - Interior and shell are the same rule around the exchange: the ring's
//     velocities before the post, the interior's chain fd.Halo and its sponge
//     2*fd.Halo in from each face with a neighbour while the messages fly,
//     the rest after the wait.
//   - A walk before the post runs no sponge, so StartVelocity and the x-round
//     inside FinishVelocity send the velocities the kernel wrote, imaged
//     with it above the free surface: every ghost column arrives as the
//     serial run holds it, and the ghost frame needs no imaging of its own.
//   - Where no neighbour sends, the ghost frame holds zeros, so the walk
//     reads it before the wait.
//   - A column's traction ghosts are read by the velocity kernel on that
//     column alone: the walk images them just before the kernel runs there,
//     and the chain, which changes the stresses they mirror, runs there
//     later. The ghost frame's, which no kernel reads but dumps hold, are
//     imaged at the step head.
//   - Behind the velocity half of the sponge a cell's velocities are the
//     step's last: the walk folds them there into the block's max |v| and,
//     at the PGV depth, into the peaks. The three walks' sponge lists
//     partition the block and the strips each list, so each cell is scanned
//     once, and both folds — a maximum of bit patterns, a peak per column —
//     are order-free.
//   - Compressed storage round-trips each region right behind the stage
//     that wrote it, touching its cells alone, so the rule orders every
//     reader after it: the bits are those of whole-block round trips after
//     each phase. The kernel reads the traction ghosts as imaged (negating
//     does not commute with an asymmetric codec), so they are stored with
//     the chain's stresses, and the frame's behind the head's imaging.
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
	s.vmax = 0 // the walks fold the step's max |v| into it
	dtdx := float32(s.Cfg.Dt / s.Cfg.Dx)
	sw := s.stages.Stopwatch()

	// the walk images the owned columns' tractions, the head the frame's
	for _, c := range s.frame {
		fd.ImageTractionCols(s.WF, c.I0, c.I1, c.J0, c.J1)
		if s.comp != nil {
			c.K0, c.K1 = -fd.Halo, 0 // the ghosts just imaged
			s.comp.roundTrip(s.WF, tractions, c, s.scratchFor(1)[0].codes)
		}
	}
	sw.Lap(telemetry.StageFreeSurface)
	s.walk(s.walks[0], dtdx, &sw)
	ex.StartVelocity(s.WF, s.step)
	sw.Lap(telemetry.StageHaloVelocity)
	s.walk(s.walks[1], dtdx, &sw)
	ex.FinishVelocity(s.WF, s.step)
	if s.Cfg.Overlap {
		sw.Lap(telemetry.StageHaloWait)
	} else {
		sw.Lap(telemetry.StageHaloVelocity)
	}
	s.walk(s.walks[2], dtdx, &sw)
	ex.StartStress(s.WF, s.step)
	ex.FinishStress(s.WF, s.step)
	sw.Lap(telemetry.StageHaloStress)
}

// geometry is the shape a walk moves in: strips of cols columns (the last
// may be narrower), down each slabs of planes i-planes; zero, or more than
// the block holds, is the whole extent. One slab of one strip runs each
// stage over the block in turn.
type geometry struct{ planes, cols int }

// chainBlockPoints is the largest block the walk takes as one slab: its six
// stress arrays (6 x 4 B x 32768 cells = 768 KB) stay in L2 from the chain's
// first stage to its last, so a 32x32x24 block pays for no strips.
// skewStripPoints bounds a larger block's strips, walked one i-plane at a
// time: at most this many cells a plane-strip (one column at least). Down a
// strip some 39 plane-strips stay live — each stress from the furthest
// plane ahead the kernel reads it at back to the chain's, each velocity from
// the kernel's plane back to the sponge's — beside the medium rows streaming
// through: at 64 columns of a 96-deep block ~1 MB, inside the L2 of the
// hosts we run on. Wider strips measured slower, whole planes slowest
// (DESIGN.md §3.1).
const (
	chainBlockPoints = 1 << 15
	skewStripPoints  = 3 << 11
)

// walkGeometry, where not zero, overrides the derived geometry; only tests
// set it.
var walkGeometry geometry

// geometry returns the block's walk geometry for w workers: one slab for a
// block that fits a cache as it is; otherwise 1-plane slabs down the fewest
// strips of at most skewStripPoints cells, rounded up to a multiple of w and
// as even as one width makes them, so each worker gets as many strips of
// the same size.
func (s *Simulator) geometry(w int) geometry {
	switch d := s.Cfg.Dims; {
	case walkGeometry != geometry{}:
		return walkGeometry
	case d.Points() <= chainBlockPoints:
		return geometry{}
	default:
		n := ceilDiv(d.Ny, max(1, skewStripPoints/d.Nz))
		n = min(ceilDiv(n, w)*w, d.Ny)
		return geometry{planes: 1, cols: ceilDiv(d.Ny, n)}
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// strips is how many strips of columns the block's walk in g cuts.
func (s *Simulator) strips(g geometry) int {
	return ceilDiv(s.Cfg.Dims.Ny, cmp.Or(g.cols, s.Cfg.Dims.Ny))
}

// walkers is how many workers walk the block's strips while a run steps:
// the resolved tile count, at most one a strip.
func (s *Simulator) walkers() int {
	return min(s.tiles, s.strips(s.geometry(s.tiles)))
}

// walk runs one pass over the block's strips (geometry). With W workers —
// the run's, at most one a strip — strip k goes to worker k mod W and the
// workers walk their strips at once, as a wavefront: strip k enters a plane
// iteration only once strip k-1 has finished it (stepPipeline says why that
// is enough). The first worker is the calling goroutine; a lone worker walks
// the strips in order, with no goroutine and no wait. Stage times are
// tallied per worker and observed once per stage per pass, the sponge's
// velocity half apart from the chain's; so are the workers' yield counts
// and max-|v| bits, folded into the block's.
func (s *Simulator) walk(p pass, dtdx float32, sw *telemetry.Stopwatch) {
	if len(p.vel)+len(p.chain)+len(p.sponge) == 0 {
		return
	}
	w := max(1, s.workers)
	g := s.geometry(w)
	strips := s.strips(g)
	w = min(w, strips)
	var f front
	if w > 1 {
		f = make(front, strips)
	}
	scratch := s.scratchFor(w)
	tally := sw.Tally()
	damp := tally.Fork()
	var mu sync.Mutex
	work := func(id int) {
		t, dt := tally.Fork(), tally.Fork()
		var yielded int64
		var vmax uint32
		for k := id; k < strips; k += w {
			y, v := s.stripWalk(p, g, k, f, dtdx, &t, &dt, scratch[id])
			yielded, vmax = yielded+y, max(vmax, v)
		}
		mu.Lock()
		tally.Merge(&t)
		damp.Merge(&dt)
		s.yielded += yielded
		s.vmax = max(s.vmax, vmax)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for id := 1; id < w; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(id)
		}()
	}
	work(0)
	wg.Wait()
	sw.LapTallied(&tally, &damp)
}

// stripWalk walks strip k of the block for a pass: down the strip slabs of
// g.planes i-planes; on each, the owned-column imaging of both ghost kinds
// around the velocity kernel, stressChain a slab (at least fd.Halo planes)
// and fd.Halo columns behind, the velocity sponge as far again behind the
// chain and, where it has passed, the scans of the step's last velocities,
// each with its round trips on compressed storage. In a wavefront (f not
// nil) it enters its n-th slab once strip k-1 has finished its n-th, and
// then says it has finished it too. It returns the number of cells that
// yielded and the sign-cleared bits of the largest |v| it scanned.
func (s *Simulator) stripWalk(p pass, g geometry, k int, f front, dtdx float32, t, damp *telemetry.StageTally, sc *scratch) (int64, uint32) {
	const h = fd.Halo
	b := grid.Box(s.Cfg.Dims)
	planes, cols := b.Ni(), b.Nj()
	if g.planes > 0 {
		planes = min(planes, g.planes)
	}
	if g.cols > 0 {
		cols = min(cols, g.cols)
	}
	lag := max(h, planes)
	j0 := b.J0 + k*cols
	j1 := min(j0+cols, b.J1)
	// the strip's slab at plane i, n planes and c columns behind
	behind := func(i, n, c int) grid.Region {
		r := b
		r.I0, r.I1 = i-n, i-n+planes
		if j0 > b.J0 {
			r.J0 = j0 - c
		}
		if j1 < b.J1 {
			r.J1 = j1 - c
		}
		return r
	}
	var yielded int64
	var vmax uint32
	for i, n := b.I0, int64(1); i < b.I1+2*lag; i, n = i+planes, n+1 {
		if f != nil && k > 0 && f.wait(k-1, n) {
			var idle telemetry.StageTally
			t.LapTo(&idle, telemetry.StageVelocity) // the wait is no stage's
		}
		for _, box := range p.vel {
			if r := box.Intersect(behind(i, 0, 0)); !r.Empty() {
				if r.K0 == 0 {
					fd.ImageTractionCols(s.WF, r.I0, r.I1, r.J0, r.J1)
					t.Lap(telemetry.StageFreeSurface)
				}
				fd.UpdateVelocityRegion(s.WF, s.Med, dtdx, r)
				t.Lap(telemetry.StageVelocity)
				fd.ImageVelocityCols(s.WF, r.I0, r.I1, r.J0, r.J1)
				t.Lap(telemetry.StageFreeSurface)
				if s.comp != nil { // read as stored: the dstrqc side of Fig. 5b
					s.comp.roundTrip(s.WF, velocities, withSurfaceGhosts(r), sc.codes)
					t.Lap(telemetry.StageCompression)
				}
			}
		}
		for _, box := range p.chain {
			if r := box.Intersect(behind(i, lag, h)); !r.Empty() {
				yielded += s.stressChain(r, dtdx, t, sc)
			}
		}
		for _, box := range p.sponge {
			r := box.Intersect(behind(i, 2*lag, 2*h))
			if r.Empty() {
				continue
			}
			if s.sponge != nil {
				s.sponge.ApplyVelocityRegion(s.WF, r)
				t.LapTo(damp, telemetry.StageSponge)
				if s.comp != nil { // store what it damped
					s.comp.roundTrip(s.WF, velocities, r, sc.codes)
					t.Lap(telemetry.StageCompression)
				}
			}
			vmax = max(vmax, math.Float32bits(grid.MaxAbsRegion(r, s.WF.U, s.WF.V, s.WF.W)))
			t.Lap(telemetry.StageDivergence)
			if s.pgv != nil && r.K0 <= s.pgv.K && s.pgv.K < r.K1 {
				s.pgv.UpdateCols(s.WF, r.I0, r.I1, r.J0, r.J1)
				t.Lap(telemetry.StageRecord)
			}
		}
		if f != nil {
			f[k].done.Store(n)
		}
	}
	return yielded, vmax
}

// stressChain runs the stress-side stages — stress kernel, SLS memory
// update, source injection, plasticity, attenuation, the stress half of the
// sponge — on one block, is the only place that order is spelled, and
// returns the number of cells that yielded. Every stage but the stress
// kernel reads and writes only the six stresses of the cell it stands on,
// and within a block sources are injected in list order, so co-located
// sources keep theirs. Under SLS the worker's snapshot takes the block's
// stresses just before the kernel: nothing else in the step has written
// them yet. Compressed storage stores them last, with the traction ghosts
// above b, which the velocity kernel has read.
func (s *Simulator) stressChain(b grid.Region, dtdx float32, t *telemetry.StageTally, sc *scratch) int64 {
	if s.sls != nil {
		sc.snap.Take(s.WF, b)
		t.Lap(telemetry.StageAttenuation)
	}
	fd.UpdateStressRegion(s.WF, s.Med, dtdx, b)
	t.Lap(telemetry.StageStress)
	if s.sls != nil {
		s.sls.AfterRegion(s.WF, s.Cfg.Dt, &sc.snap)
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
	if s.comp != nil {
		s.comp.roundTrip(s.WF, stresses, withSurfaceGhosts(b), sc.codes)
		t.Lap(telemetry.StageCompression)
	}
	return yielded
}

// scratch is what one walk worker reuses every step: the SLS snapshot of
// the chain region it is on and the codes of a padded column it round trips.
type scratch struct {
	snap  fd.StressSnapshot
	codes []uint16
}

// scratchFor returns the scratch of w workers, making what the block does
// not hold yet.
func (s *Simulator) scratchFor(w int) []*scratch {
	for len(s.scratch) < w {
		s.scratch = append(s.scratch, &scratch{codes: make([]uint16, s.Cfg.Dims.Nz+2*fd.Halo)})
	}
	return s.scratch[:w]
}

// clip is the non-empty parts of rs inside r.
func clip(rs []grid.Region, r grid.Region) []grid.Region {
	var out []grid.Region
	for _, x := range rs {
		if c := x.Intersect(r); !c.Empty() {
			out = append(out, c)
		}
	}
	return out
}
