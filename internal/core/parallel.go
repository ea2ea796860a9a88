package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"swquake/internal/cgexec"
	"swquake/internal/checkpoint"
	"swquake/internal/compress"
	"swquake/internal/decomp"
	"swquake/internal/faultinject"
	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/mpi"
	"swquake/internal/seismo"
	"swquake/internal/source"
	"swquake/internal/telemetry"
)

// RunParallel executes the configured simulation over an mx x my process
// grid of simulated MPI ranks (paper §6.3 level 1): each rank owns one
// block of the horizontal plane and drives the same step pipeline as the
// serial runner, with an Exchanger that swaps velocity halos after the
// velocity update and stress halos after the stress update. The parallel
// run is numerically identical to the serial one — the cross-check tests
// rely on that — including in compressed-storage mode, where ranks exchange
// round-tripped halo values, which the next round trip leaves as they are,
// so ghost data matches the serial run bit for bit.
//
// Feature parity with the serial runner is complete: checkpoints are
// gathered to rank 0 and written as one global dump (readable by serial or
// parallel restarts via Config.RestartFrom) carrying the full resume state,
// divergence is detected collectively, Result.Perf sums the per-rank kernel
// counters, and Result.Sunway aggregates the simulated core-group stats
// when Config.SunwaySim is set.
func RunParallel(cfg Config, mx, my int) (*Result, error) {
	return RunParallelCtx(context.Background(), cfg, mx, my)
}

// RunParallelCtx is RunParallel with cancellation and self-healing.
//
// Cancellation: the context is checked collectively at every step boundary
// (the same AllreduceMax pattern as the divergence check), so all ranks
// stop together within one step and the context's cause comes back wrapped
// in the error.
//
// Self-healing (DESIGN.md §3.7): an in-run EngineFault — corrupt halo
// frame, stalled exchange, rank panic — unwinds every rank collectively,
// and when Config.MaxFaultRetries allows, the run rewinds to the newest
// valid checkpoint (or the start) and resumes in-process, bit-identical to
// an undisturbed run. Recovered faults are reported through Config.OnFault
// and Result.Faults; a fault that exhausts the budget fails the run with
// the *EngineFault in the error chain. Non-fault errors (divergence,
// cancellation, setup, checkpoint I/O) are deterministic and never retried.
func RunParallelCtx(ctx context.Context, cfg Config, mx, my int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pg, err := decomp.NewProcessGrid(cfg.Dims.Nx, cfg.Dims.Ny, cfg.Dims.Nz, mx, my)
	if err != nil {
		return nil, err
	}
	srcParts, err := source.Partition(cfg.Sources, cfg.Dims.Nx, cfg.Dims.Ny, mx, my)
	if err != nil {
		return nil, err
	}
	// once per run, on the global configuration: every block, and every
	// recovery attempt, stores through the same codecs
	codecs, err := calibrate(cfg)
	if err != nil {
		return nil, err
	}

	runStart := timeNow()
	var faults []FaultEvent
	restartFrom := cfg.RestartFrom
	for attempt := 1; ; attempt++ {
		run := cfg
		run.RestartFrom = restartFrom
		res, err := runParallelOnce(ctx, run, pg, srcParts, codecs)
		if err == nil {
			res.Faults = faults
			res.Perf.Elapsed = timeNow().Sub(runStart)
			return res, nil
		}
		var ef *EngineFault
		if !errors.As(err, &ef) {
			return nil, err
		}
		ev := FaultEvent{Kind: ef.Kind, Rank: ef.Rank, Step: ef.Step, Attempt: attempt, Err: ef.Err}
		if attempt > cfg.MaxFaultRetries || ctx.Err() != nil {
			emitFault(&cfg, ev)
			return nil, fmt.Errorf("core: engine fault after %d in-run recovery attempt(s): %w", attempt-1, err)
		}
		// rewind: the newest dump that still passes every integrity check,
		// else whatever the caller restarted from, else the beginning
		resume := cfg.RestartFrom
		if cfg.Checkpoint != nil {
			if path, cerr := checkpoint.LatestValid(cfg.Checkpoint.Dir); cerr == nil {
				resume = path
			}
		}
		ev.Recovered = true
		if step, ok := checkpoint.PathStep(resume); ok {
			ev.ResumeStep = step
		}
		emitFault(&cfg, ev)
		faults = append(faults, ev)
		restartFrom = resume
	}
}

// emitFault reports one fault event to the tracer and the OnFault hook.
func emitFault(cfg *Config, ev FaultEvent) {
	if cfg.Tracer != nil {
		cfg.Tracer.Instant(0, cfg.TraceTID, "engine", "engine_fault", timeNow(), map[string]any{
			"kind": string(ev.Kind), "rank": ev.Rank, "step": ev.Step,
			"attempt": ev.Attempt, "recovered": ev.Recovered, "resume_step": ev.ResumeStep,
			"err": fmt.Sprint(ev.Err),
		})
	}
	if cfg.OnFault != nil {
		cfg.OnFault(ev)
	}
}

// runParallelOnce is one attempt at the full parallel run: spawn the world,
// contain whatever the ranks raise, and merge the outputs as if gathered to
// rank 0. Perf.Elapsed is left to the caller, which accounts wall time
// across recovery attempts.
func runParallelOnce(ctx context.Context, cfg Config, pg *decomp.ProcessGrid, srcParts [][]source.PointSource, codecs []compress.Codec) (*Result, error) {
	// each rank writes only its own outs slot, so the merge below needs no
	// locking (world.Run joins every rank goroutine before returning)
	outs := make([]rankOut, pg.Size())
	world := mpi.NewWorld(pg.Size())
	world.Run(func(r *mpi.Rank) {
		out := &outs[r.ID()]
		defer func() {
			if p := recover(); p != nil {
				containFault(r, out, p)
			}
		}()
		runRank(ctx, r, pg, cfg, srcParts[r.ID()], codecs, out)
	})
	// however the attempt ended — done, canceled, failed or unwound by a
	// fault — rank 0's last dump lands before anyone acts on the outcome, so
	// a rewind or a restart finds it
	var ckpts []checkpoint.Info
	var ckptErr error
	if cfg.Checkpoint != nil {
		ckpts, ckptErr = cfg.Checkpoint.Close()
	}

	// error triage: the typed fault outranks its collateral damage (ranks
	// unwound by the abort), and any plain error outranks both
	var abortErr error
	abortRank := -1
	var plainErr error
	plainRank := -1
	for id := range outs {
		o := &outs[id]
		if o.err == nil {
			continue
		}
		var ef *EngineFault
		if errors.As(o.err, &ef) {
			return nil, fmt.Errorf("core: rank %d: %w", id, o.err)
		}
		var ae *mpi.AbortError
		if errors.As(o.err, &ae) {
			if abortErr == nil {
				abortErr, abortRank = o.err, id
			}
			continue
		}
		if plainErr == nil {
			plainErr, plainRank = o.err, id
		}
	}
	if plainErr != nil {
		return nil, fmt.Errorf("core: rank %d: %w", plainRank, plainErr)
	}
	if abortErr != nil {
		// an abort with no recorded fault should be impossible; fail loudly
		// rather than merge a half-finished run
		return nil, fmt.Errorf("core: rank %d: %w", abortRank, abortErr)
	}
	if ckptErr != nil {
		return nil, fmt.Errorf("core: %w", ckptErr)
	}

	res := &Result{Stages: telemetry.NewStageClock()}
	merged := &seismo.Recorder{}
	if cfg.RecordPGV {
		res.PGV = seismo.NewPGVField(cfg.Dims.Nx, cfg.Dims.Ny, 0)
	}
	for id := range outs {
		sim := outs[id].sim
		offI, offJ := pg.Offset(id)
		for _, tr := range sim.rec.Traces {
			g := *tr
			g.Station.I += offI
			g.Station.J += offJ
			merged.Traces = append(merged.Traces, &g)
		}
		if res.PGV != nil {
			res.PGV.Merge(sim.pgv, offI, offJ)
		}
		res.YieldedPointSteps += sim.yielded
		res.Perf.AddCounters(sim.perf)
		res.Stages.Merge(sim.stages)
		if stats := sim.sunwayStats(); stats != nil {
			if res.Sunway == nil {
				res.Sunway = &cgexec.Stats{}
			}
			res.Sunway.Add(*stats)
		}
	}
	res.setCheckpoints(ckpts)
	res.Recorder = merged
	res.Dt = outs[0].sim.Cfg.Dt
	res.Steps = outs[0].sim.step
	res.Perf.Steps = outs[0].sim.perf.Steps
	return res, nil
}

// containFault is the rank goroutine's recover handler: a detected
// EngineFault claims the rank and poisons the world so every neighbour
// unwinds; an *mpi.AbortError is that unwinding (collateral, recorded
// as-is); anything else is an unclassified panic wrapped as an EngineFault.
// The merge then surfaces the typed fault, not the collateral.
func containFault(r *mpi.Rank, out *rankOut, p any) {
	switch v := p.(type) {
	case *EngineFault:
		v.Rank = r.ID()
		out.err = v
		r.Abort(v.Error())
	case *mpi.AbortError:
		out.err = v
	default:
		ef := &EngineFault{Kind: FaultPanic, Rank: r.ID(), Err: fmt.Errorf("panic: %v", v)}
		if out.sim != nil {
			ef.Step = out.sim.step
		}
		out.err = ef
		r.Abort(ef.Error())
	}
}

// rankOut is what one rank reports back to the merge step: its simulator
// (nil when it could not be built) and what stopped it, if anything did.
type rankOut struct {
	sim *Simulator
	err error
}

// runRank is the per-rank body of RunParallel: build the block's simulator
// with the rank's collectives for peers, optionally restore its share of a
// checkpoint, and step it through the one loop (Simulator.run).
func runRank(ctx context.Context, r *mpi.Rank, pg *decomp.ProcessGrid, cfg Config, srcs []source.PointSource, codecs []compress.Codec, out *rankOut) {
	p := peers{
		ex:         &haloExchanger{r: r, pg: pg, crc: cfg.HaloCRC, deadline: cfg.StepDeadline},
		allMax:     r.AllreduceMax,
		checkpoint: func(s *Simulator) error { return parallelCheckpoint(r, s) },
	}
	sim, err := newBlock(cfg, pg, r.ID(), srcs, codecs, p)
	if err != nil {
		out.err = err
		return
	}
	out.sim = sim
	if cfg.RestartFrom != "" {
		if out.err = p.agree(sim.Restore(cfg.RestartFrom)); out.err != nil {
			return
		}
	}
	if out.err = sim.run(ctx); out.err != nil {
		return
	}
	// halo traffic is analytic — HaloBytesPerStep matches the exchanged
	// byte count exactly for the 9 dynamic fields (the optional CRC word is
	// integrity overhead, not field traffic) — so it needs no counter on
	// the hot path. Steps spans the whole simulation on every rank (an
	// aux-carrying restart restores the global count), so restarted,
	// recovered and undisturbed runs all account identically.
	sim.perf.HaloBytes = pg.HaloBytesPerStep(r.ID(), len(FieldNames), fd.Halo) * sim.perf.Steps
}

// blockStationIndices returns the indices into the run's station list of the
// stations hosted by rank id's block, in the order newBlock builds the local
// station list — the one mapping between a block's local traces and the
// global station set, shared by checkpoint assembly and restore.
func blockStationIndices(stations []seismo.Station, pg *decomp.ProcessGrid, id int) []int {
	i0, j0 := pg.Offset(id)
	block := pg.BlockDims()
	var idxs []int
	for gi, st := range stations {
		if st.I >= i0 && st.I < i0+block.Nx && st.J >= j0 && st.J < j0+block.Ny {
			idxs = append(idxs, gi)
		}
	}
	return idxs
}

// parallelCheckpoint gathers every rank's interior block — and its slice of
// the resume state — to rank 0, which assembles the global wavefield plus a
// global resume-aux section and drives the shared checkpoint controller:
// the paper's gather-to-I/O-process restart path. The dump is byte-for-byte
// interchangeable with a serial run's, aux included. The controller writes
// it beside the next steps and takes the gathered wavefield as its own. The
// status — assembly errors and any earlier dump's write error — is broadcast
// so all ranks agree on failure and stop together.
func parallelCheckpoint(r *mpi.Rank, sim *Simulator) error {
	pg := sim.pg
	parts := r.Gather(0, checkpoint.PackInterior(sim.WF))
	auxParts := r.Gather(0, auxWords(sim.resumeAux()))
	status := []float32{0}
	var saveErr error
	if r.ID() == 0 {
		global := fd.NewWavefield(pg.GlobalDims())
		for id, part := range parts {
			bi, bj := pg.Offset(id)
			if err := checkpoint.UnpackInterior(global, pg.BlockDims(), bi, bj, part); err != nil {
				saveErr = err
				break
			}
		}
		var aux []byte
		if saveErr == nil {
			aux, saveErr = assembleGlobalResume(auxParts, sim)
		}
		if saveErr == nil {
			_, saveErr = sim.Cfg.Checkpoint.MaybeSaveAux(sim.step, sim.simTime, global, aux)
		}
		if saveErr != nil {
			status[0] = 1
		}
	} else {
		status = nil
	}
	if st := r.Bcast(0, status); st[0] != 0 {
		if saveErr == nil {
			saveErr = fmt.Errorf("checkpoint failed on rank 0")
		}
	}
	return saveErr
}

// assembleGlobalResume merges the per-rank resume payloads gathered at a
// parallel checkpoint into one global resume-aux section in the serial
// format: traces land in the run's station order, the per-rank PGV blocks merge
// into the global surface, and the work counters sum across ranks — which
// is why a parallel dump restores bit-exactly into a serial run, a
// parallel run, or a recovery attempt.
func assembleGlobalResume(parts [][]float32, sim *Simulator) ([]byte, error) {
	pg := sim.pg
	g := resumeState{
		steps:     sim.perf.Steps,
		elapsed:   sim.perf.Elapsed,
		stepsSeen: sim.rec.StepsSeen(),
		traces:    make([][3][]float32, len(sim.stations)),
	}
	if sim.pgv != nil {
		g.pgv = seismo.NewPGVField(pg.GlobalNx, pg.GlobalNy, sim.pgv.K)
	}
	for id, part := range parts {
		raw, err := auxBytes(part)
		if err != nil {
			return nil, fmt.Errorf("core: rank %d resume payload: %w", id, err)
		}
		st, err := parseResumeAux(raw)
		if err != nil {
			return nil, fmt.Errorf("core: rank %d resume payload: %w", id, err)
		}
		idxs := blockStationIndices(sim.stations, pg, id)
		if len(st.traces) != len(idxs) {
			return nil, fmt.Errorf("core: rank %d gathered %d traces, block hosts %d stations",
				id, len(st.traces), len(idxs))
		}
		for li, gi := range idxs {
			g.traces[gi] = st.traces[li]
		}
		if g.pgv != nil {
			if st.pgv == nil {
				return nil, fmt.Errorf("core: rank %d resume payload carries no PGV", id)
			}
			i0, j0 := pg.Offset(id)
			g.pgv.Merge(st.pgv, i0, j0)
		}
		g.yielded += st.yielded
		g.velocityPoints += st.velocityPoints
		g.stressPoints += st.stressPoints
		g.plasticityPoints += st.plasticityPoints
		g.spongePoints += st.spongePoints
	}
	return encodeResumeState(&g), nil
}

// haloExchanger is the RunParallel Exchanger: the 2D halo protocol over the
// simulated MPI world, tagged per step and phase, split into the Start/
// Finish halves the step pipeline needs. Start posts the y-round
// (pack + IsendOwned + Irecv) and returns; Finish completes the y-round and
// then runs the whole x-round, whose face messages carry the corner columns
// the y-round unpack just filled.
//
// Pack buffers are recycled through bufs: a sender draws a buffer from its
// cache and hands ownership across the channel (mpi.IsendOwned, no copy);
// the receiver unpacks and then keeps the SENDER's buffer in its own cache.
// Each neighbour pair trades one buffer each way per face per phase, so the
// flow is balanced and the steady-state exchange allocates nothing.
//
// With crc set, every frame carries one extra CRC32 word (mpi.SealCRC) and
// the receiver verifies it before unpacking; with a deadline set, every
// receive wait is bounded. Either violation panics a typed *EngineFault,
// which the rank's containment handler turns into a collective unwind —
// that panic, not a return value, is why the Exchanger interface needs no
// error plumbing.
//
// The exchanger is driven by exactly one rank goroutine, so bufs and the
// pending-phase fields need no locking.
type haloExchanger struct {
	r        *mpi.Rank
	pg       *decomp.ProcessGrid
	crc      bool
	deadline time.Duration
	step     int // current step, for fault attribution
	bufs     bufCache
	vel      *pendingPhase
	str      *pendingPhase
}

// pendingPhase is one halo phase in flight between Start and Finish: the
// fields being exchanged and the y-round requests already posted.
type pendingPhase struct {
	fields  []*grid.Field
	tagBase int
	sends   []*mpi.Request
	recvs   []pendingRecv
}

type pendingRecv struct {
	face grid.Face
	req  *mpi.Request
}

func (h *haloExchanger) StartVelocity(wf *fd.Wavefield, step int) {
	h.step = step
	h.vel = h.startPhase(wf.VelocityFields(), step*2)
}

func (h *haloExchanger) FinishVelocity(wf *fd.Wavefield, step int) {
	h.finishPhase(h.vel)
	h.vel = nil
}

func (h *haloExchanger) StartStress(wf *fd.Wavefield, step int) {
	h.step = step
	h.str = h.startPhase(wf.StressFields(), step*2+1)
}

func (h *haloExchanger) FinishStress(wf *fd.Wavefield, step int) {
	h.finishPhase(h.str)
	h.str = nil
}

// startPhase posts the y-round of one exchange phase.
func (h *haloExchanger) startPhase(fields []*grid.Field, tagBase int) *pendingPhase {
	p := &pendingPhase{fields: fields, tagBase: tagBase}
	p.sends, p.recvs = h.postRound(fields, grid.FaceYMinus, grid.FaceYPlus, tagBase*4)
	return p
}

// finishPhase completes the y-round, then runs the x-round start to end.
// The x-round cannot be posted before the y-round unpack: its face messages
// include the corner columns the y-round delivers.
func (h *haloExchanger) finishPhase(p *pendingPhase) {
	h.completeRound(p.fields, p.sends, p.recvs)
	sends, recvs := h.postRound(p.fields, grid.FaceXMinus, grid.FaceXPlus, p.tagBase*4+1)
	h.completeRound(p.fields, sends, recvs)
}

// postRound packs and posts the non-blocking sends and receives for one
// direction pair. Under crc the frame is one word longer than the payload
// and sealed after packing; the halo/corrupt failpoint flips a payload bit
// AFTER the seal — exactly the in-flight corruption the check exists to
// catch — and halo/delay holds the send back to exercise the watchdog.
func (h *haloExchanger) postRound(fields []*grid.Field, minus, plus grid.Face, tag int) ([]*mpi.Request, []pendingRecv) {
	var sends []*mpi.Request
	var recvs []pendingRecv
	for _, face := range []grid.Face{minus, plus} {
		nb, ok := h.pg.Neighbor(h.r.ID(), face)
		if !ok {
			continue
		}
		n := haloLen(fields, face)
		frame := n
		if h.crc {
			frame = n + 1
		}
		buf := h.bufs.get(frame)
		packFields(fields, face, buf[:n])
		if h.crc {
			mpi.SealCRC(buf)
			if faultinject.Fire(faultinject.HaloCorrupt) && n > 0 {
				buf[0] = math.Float32frombits(math.Float32bits(buf[0]) ^ 1)
			}
		}
		faultinject.Fire(faultinject.HaloDelay) // sleeps the configured Delay
		sends = append(sends, h.r.IsendOwned(nb, tag, buf))
		recvs = append(recvs, pendingRecv{face: face, req: h.r.Irecv(nb, tag)})
	}
	return sends, recvs
}

// completeRound waits for the receives, unpacks them (recycling the arrived
// buffers), and drains the send requests. A receive that outlives the step
// deadline is a stalled neighbour; a frame that fails its CRC is corrupt —
// both panic a typed *EngineFault for the containment handler.
func (h *haloExchanger) completeRound(fields []*grid.Field, sends []*mpi.Request, recvs []pendingRecv) {
	for _, p := range recvs {
		data, ok := p.req.WaitWithin(h.deadline)
		if !ok {
			panic(&EngineFault{Kind: FaultStall, Step: h.step,
				Err: fmt.Errorf("halo receive exceeded the %v step deadline", h.deadline)})
		}
		payload := data
		if h.crc {
			var err error
			payload, err = mpi.OpenCRC(data)
			if err != nil {
				panic(&EngineFault{Kind: FaultHaloCorrupt, Step: h.step, Err: err})
			}
		}
		unpackFields(fields, p.face, payload)
		h.bufs.put(data)
	}
	for _, q := range sends {
		q.Wait()
	}
}

// bufCache recycles pack buffers by length. Single-threaded: each rank owns
// one cache inside its exchanger.
type bufCache struct {
	free map[int][][]float32
}

func (c *bufCache) get(n int) []float32 {
	if l := c.free[n]; len(l) > 0 {
		buf := l[len(l)-1]
		c.free[n] = l[:len(l)-1]
		return buf
	}
	return make([]float32, n)
}

func (c *bufCache) put(buf []float32) {
	if c.free == nil {
		c.free = make(map[int][][]float32)
	}
	c.free[len(buf)] = append(c.free[len(buf)], buf)
}

// haloLen sums the fields' halo lengths for the face.
func haloLen(fields []*grid.Field, face grid.Face) int {
	n := 0
	for _, f := range fields {
		n += f.HaloLen(face)
	}
	return n
}

// packFields concatenates each field's boundary halo for the face into buf,
// which must have exactly haloLen(fields, face) elements.
func packFields(fields []*grid.Field, face grid.Face, buf []float32) {
	off := 0
	for _, f := range fields {
		l := f.HaloLen(face)
		f.PackHalo(face, buf[off:off+l])
		off += l
	}
}

// unpackFields writes a received buffer into the ghost layers of the face.
func unpackFields(fields []*grid.Field, face grid.Face, buf []float32) {
	off := 0
	for _, f := range fields {
		l := f.HaloLen(face)
		f.UnpackHalo(face, buf[off:off+l])
		off += l
	}
}
