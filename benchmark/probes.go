package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"swquake/internal/admission"
	"swquake/internal/atomicio"
	"swquake/internal/checkpoint"
	"swquake/internal/core"
	"swquake/internal/decomp"
	"swquake/internal/fd"
	"swquake/internal/grid"
	"swquake/internal/lz4"
	"swquake/internal/model"
	"swquake/internal/mpi"
	"swquake/internal/plasticity"
	"swquake/internal/scenario"
	"swquake/internal/seismo"
	"swquake/internal/service"
)

// The layer probes are the direct calls into single layers that the traced
// pass makes after the traced workload: each times a public function of one
// module on a fixed input and reports it under "<module>.<what>". They do
// not depend on which workload was traced, so every traced run reports every
// per-layer metric.

// Computed bytes moved per grid point by one kernel sweep, from the arrays
// the kernel touches (4-byte floats, each array counted once per direction):
// velocity reads six stresses and rho and updates three velocities in place;
// stress reads three velocities, lambda and mu and updates six stresses.
var computedBytesPerPoint = map[string]float64{
	"velocity": (6 + 1 + 2*3) * 4,
	"stress":   (3 + 2 + 2*6) * 4,
}

// layerMetrics collects one value per per-layer metric name.
type layerMetrics map[string]float64

// timeBest runs f reps times and returns the best wall time in seconds.
func timeBest(reps int, f func()) float64 {
	b := math.Inf(1)
	for i := 0; i < reps; i++ {
		t := time.Now()
		f()
		if d := time.Since(t).Seconds(); d < b {
			b = d
		}
	}
	return b
}

// runProbes makes every direct layer measurement and fills m.
func runProbes(e *env, m layerMetrics) error {
	probes := []struct {
		name string
		f    func(*env, layerMetrics) error
	}{
		{"host", probeHost},
		{"model", probeModel},
		{"kernels.small", probeKernelsSmall},
		{"kernels.large", probeKernelsLarge},
		{"scaling", probeScaling},
		{"durability", probeDurability},
		{"service", probeService},
		{"quaked", probeQuaked},
		{"ensemble", probeEnsemble},
	}
	for _, p := range probes {
		pe := *e
		pe.parent = e.tr.begin("probe."+p.name, e.parent, e.op)
		err := p.f(&pe, m)
		e.tr.end(pe.parent)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return nil
}

// probeHost measures the host's streaming bandwidth with a single-threaded
// triad a[i] = b[i] + s*c[i] over three arrays far larger than any cache.
func probeHost(e *env, m layerMetrics) error {
	n := e.sc.triadMiB << 20 / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = float64(i), 2
	}
	s := timeBest(e.sc.probeReps, func() {
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
	})
	if a[n-1] != float64(n-1)+6 {
		return fmt.Errorf("triad result wrong")
	}
	m["host.triad_gbps"] = 3 * 8 * float64(n) / s / 1e9
	return nil
}

// probeModel times model sampling and scenario construction, the set-up
// every run and every service job pays.
func probeModel(e *env, m layerMetrics) error {
	d := e.sc.large
	dx := 500.0
	mdl := model.ScaledTangshan(float64(d.Nx)*dx, float64(d.Ny)*dx, float64(d.Nz)*dx)
	var med *fd.Medium
	m["model.sample_s.large"] = timeBest(1, func() { med = fd.NewMediumFromModel(d, dx, mdl, 0, 0) })
	if err := med.Validate(); err != nil {
		return err
	}
	var err error
	m["scenario.build_ms"] = 1e3 * timeBest(10*e.sc.probeReps, func() {
		if _, berr := scenario.Build("quickstart", scenario.Overrides{Steps: e.sc.jobSteps}); berr != nil {
			err = berr
		}
	})
	m["scenario.build_het_ms"] = 1e3 * timeBest(10*e.sc.probeReps, func() {
		if _, berr := scenario.Build("quickstart", scenario.Overrides{Steps: e.sc.jobSteps,
			HetAmplitude: hetAmplitude, Seed: e.seed}); berr != nil {
			err = berr
		}
	})
	return err
}

// sweepKernels times each stage kernel directly over the full region of a
// simulator's state and returns the summed time of the stages named in
// inPipeline (what one step of that pipeline spends in kernels).
func sweepKernels(m layerMetrics, sim *core.Simulator, suffix string, reps int, inPipeline map[string]bool) float64 {
	d := sim.Cfg.Dims
	box := grid.Box(d)
	pts := float64(d.Points())
	dtdx := float32(sim.Cfg.Dt / sim.Cfg.Dx)
	sponge := fd.NewSponge(d.Nx, d.Ny, d.Nz, 5, 0.08)
	atten := fd.NewAttenuation(d, fd.ConstantQ{Qp: 100, Qs: 50}, 2, sim.Cfg.Dt)
	// sweep a copy: repeated direct sweeps are not a time integration and
	// must not disturb the state the caller keeps using
	wf := sim.WF.Clone()
	sweeps := []struct {
		name string
		per  float64
		unit string
		f    func()
	}{
		{"velocity", pts, "point", func() { fd.UpdateVelocityRegion(wf, sim.Med, dtdx, box) }},
		{"stress", pts, "point", func() { fd.UpdateStressRegion(wf, sim.Med, dtdx, box) }},
		{"sponge", pts, "point", func() { sponge.ApplyRegion(wf, box) }},
		{"attenuation", pts, "point", func() { atten.ApplyRegion(wf, box) }},
		{"free_surface", float64(d.Nx * d.Ny), "col", func() { fd.ApplyFreeSurfaceCols(wf, 0, d.Nx, 0, d.Ny) }},
	}
	var inStep float64
	for _, sw := range sweeps {
		s := timeBest(reps, sw.f)
		m["fd."+sw.name+"_ns_per_"+sw.unit+suffix] = s * 1e9 / sw.per
		if inPipeline[sw.name] {
			inStep += s
			if sw.name == "free_surface" {
				inStep += s // imaged before the velocity and before the stress phase
			}
		}
		if bytes := computedBytesPerPoint[sw.name]; bytes > 0 && suffix == ".large" {
			m["fd."+sw.name+"_computed_gbps.large"] = bytes * pts / s / 1e9
		}
	}
	if sim.Plas != nil {
		s := timeBest(reps, func() { plasticity.ApplyRegion(wf, sim.Plas, sim.Cfg.Dt, box) })
		m["plasticity.apply_ns_per_point"+suffix] = s * 1e9 / pts
		inStep += s
	}
	return inStep
}

// bestSolve is the fastest of probeReps solves of one configuration.
func bestSolve(e *env, name string, o scenario.Overrides, mode solveMode) (*solved, error) {
	var fastest *solved
	for i := 0; i < e.sc.probeReps; i++ {
		s, err := solve(e, name, o, mode, nil)
		if err != nil {
			return nil, err
		}
		if fastest == nil || s.runS < fastest.runS {
			fastest = s
		}
	}
	return fastest, nil
}

// probeKernelsSmall runs the L2-resident grid, the class every service job
// runs (quickstart 32x32x24, smallSteps steps; digest pinned as
// solve-linear-small), and sweeps its kernels: bandwidth does little here,
// per-step overhead (stage clock, divergence scan, observer) does most. The
// best step minus the best direct sweep of each kernel in it is the
// pipeline's own per-step cost.
func probeKernelsSmall(e *env, m layerMetrics) error {
	o := scenario.Overrides{Steps: e.sc.smallSteps}
	s, err := bestSolve(e, "quickstart", o, serial)
	if err != nil {
		return err
	}
	if err := checkPinned("solve-linear-small", resultDigest(s.res), e.sc); err != nil {
		return err
	}
	m["core.points_per_s.small"] = float64(s.dims.Points()) * float64(s.res.Steps) / s.runS
	m["core.step_ms_p50.small"] = median(s.latMS)
	m["core.step_ms_p90.small"] = percentile(s.latMS, 0.9)
	// a sweep of this grid takes a third of a millisecond: many repetitions
	// are what makes the best one repeatable
	kernels := sweepKernels(m, s.res.Sim, ".small", 20*e.sc.probeReps,
		map[string]bool{"velocity": true, "stress": true, "sponge": true, "free_surface": true})
	m["core.self_ms_per_step.small"] = best(s.latMS, false) - kernels*1e3

	t, err := bestSolve(e, "quickstart", o, tiles)
	if err != nil {
		return err
	}
	m["core.tiles_speedup.small"] = s.runS / t.runS
	if resultDigest(t.res) != resultDigest(s.res) {
		return fmt.Errorf("tiled small run is not bit-identical to serial")
	}
	return nil
}

// probeKernelsLarge does the same at the DRAM-resident size with the full
// nonlinear + attenuation pipeline.
func probeKernelsLarge(e *env, m layerMetrics) error {
	s, err := solve(e, "tangshan", e.sc.largeOverrides(e.sc.probeSteps), serial, nil)
	if err != nil {
		return err
	}
	pointSteps := float64(s.dims.Points()) * float64(s.res.Steps)
	m["core.step_ms_p50.large"] = median(s.latMS) // too few steps for a p90
	m["core.flops_per_point_step"] = float64(s.res.Perf.Flops()) / pointSteps
	m["plasticity.yielded_share"] = float64(s.res.YieldedPointSteps) / pointSteps
	kernels := sweepKernels(m, s.res.Sim, ".large", e.sc.probeReps, map[string]bool{"velocity": true,
		"stress": true, "sponge": true, "attenuation": true, "free_surface": true})
	m["core.self_ms_per_step.large"] = best(s.latMS, false) - kernels*1e3
	m["fd.stress_bw_share.large"] = m["fd.stress_computed_gbps.large"] / m["host.triad_gbps"]
	return nil
}

// probeScaling runs one DRAM-resident linear problem serial, on 2x1 ranks with
// overlapped halo exchange and on the tile pool, in one process, and checks
// the repo's bit-identity invariant across the three. Each is the best of
// probeReps solves: the first solve of a configuration also pays for
// faulting in its arrays. The parallel modes are measured here and not as
// workloads of their own because two compute threads on the reference host's
// two CPUs repeat no better than 20-60 % (README, Departures): no bound on
// them would hold.
func probeScaling(e *env, m layerMetrics) error {
	o := e.sc.scalingOverrides(e.sc.scalingSteps)
	s, err := bestSolve(e, "tangshan", o, serial)
	if err != nil {
		return err
	}
	r, err := bestSolve(e, "tangshan", o, ranks)
	if err != nil {
		return err
	}
	t, err := bestSolve(e, "tangshan", o, tiles)
	if err != nil {
		return err
	}
	want := resultDigest(s.res)
	if resultDigest(r.res) != want || resultDigest(t.res) != want {
		return fmt.Errorf("serial, ranks and tiles runs are not bit-identical")
	}
	m["core.points_per_s.scaling"] = float64(s.dims.Points()) * float64(s.res.Steps) / s.runS
	m["core.ranks_speedup"] = s.runS / r.runS
	m["core.tiles_speedup"] = s.runS / t.runS
	const nranks = 2
	m["mpi.halo_bytes_per_step"] = float64(r.res.Perf.HaloBytes) / float64(r.res.Steps)
	var wait float64
	for _, st := range r.res.Stages.Report().Stages {
		if st.Name == "halo_wait" {
			wait = st.Seconds
		}
	}
	m["mpi.halo_wait_share"] = wait / nranks / r.runS

	pg, err := decomp.NewProcessGrid(s.dims.Nx, s.dims.Ny, s.dims.Nz, nranks, 1)
	if err != nil {
		return err
	}
	// largest block over mean block; blocks are equal by construction
	// today, so this reads 1 until uneven decomposition lands
	m["decomp.imbalance"] = float64(pg.BlockDims().Points()) * float64(pg.Size()) / float64(s.dims.Points())

	// one x-face of the three velocity fields, the largest frame exchanged
	frame := make([]float32, s.dims.Ny*s.dims.Nz*fd.Halo*3+1)
	for i := range frame {
		frame[i] = float32(i%251) * 0.5
	}
	var cerr error
	sec := timeBest(10*e.sc.probeReps, func() {
		mpi.SealCRC(frame)
		if _, err := mpi.OpenCRC(frame); err != nil {
			cerr = err
		}
	})
	m["mpi.crc_gbps"] = 2 * 4 * float64(len(frame)-1) / sec / 1e9
	return cerr
}

// probeDurability measures the checkpoint path: as a whole (a run that dumps
// every ckptInterval-th step, then a second one restarted from the middle
// dump, which must reproduce the first bit for bit; digest pinned as
// solve-checkpoint-restart), then piece by piece: Save/Load of a mid-run
// wavefield, LZ4 on one field, and atomic fsynced writes.
func probeDurability(e *env, m layerMetrics) error {
	var restart float64
	for i := 0; i < e.sc.probeReps; i++ {
		r, err := checkpointRestart(e)
		if err != nil {
			return err
		}
		if r.failed > 0 {
			return fmt.Errorf("checkpoint-restart: %v", r.errs)
		}
		if err := checkPinned("solve-checkpoint-restart", r.digest, e.sc); err != nil {
			return err
		}
		restart = math.Max(restart, r.points/r.wallS)
		releaseMemory()
	}
	m["checkpoint.restart_points_per_s"] = restart

	dir, err := os.MkdirTemp(e.tmp, "probe-ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	s, err := solve(e, "tangshan", e.sc.ckptOverrides(e.sc.ckptSteps/2), serial, nil)
	if err != nil {
		return err
	}
	wf := s.res.Sim.WF
	path := filepath.Join(dir, "probe.swq")
	var info checkpoint.Info
	var serr error
	saveS := timeBest(e.sc.probeReps, func() {
		if info, err = checkpoint.Save(path, s.res.Steps, 0, wf); err != nil {
			serr = err
		}
	})
	loadS := timeBest(e.sc.probeReps, func() {
		if _, _, _, err := checkpoint.Load(path); err != nil {
			serr = err
		}
	})
	if serr != nil {
		return serr
	}
	rawMB := float64(info.RawBytes) / 1e6
	m["checkpoint.save_mb_per_s"] = rawMB / saveS
	m["checkpoint.load_mb_per_s"] = rawMB / loadS
	m["checkpoint.bytes_per_dump"] = float64(info.CompressedBytes)

	raw := make([]byte, 4*len(wf.XX.Data))
	for i, x := range wf.XX.Data {
		b := math.Float32bits(x)
		raw[4*i], raw[4*i+1], raw[4*i+2], raw[4*i+3] = byte(b), byte(b>>8), byte(b>>16), byte(b>>24)
	}
	var comp []byte
	compS := timeBest(e.sc.probeReps, func() { comp = lz4.CompressAlloc(raw) })
	decS := timeBest(e.sc.probeReps, func() {
		if _, err := lz4.DecompressAlloc(comp, len(raw)); err != nil {
			serr = err
		}
	})
	m["lz4.ratio"] = lz4.Ratio(len(raw), len(comp))
	m["lz4.compress_mb_per_s"] = float64(len(raw)) / 1e6 / compS
	m["lz4.decompress_mb_per_s"] = float64(len(raw)) / 1e6 / decS

	page := make([]byte, 4096)
	var writes []float64
	for i := 0; i < 50; i++ {
		t := time.Now()
		if err := atomicio.WriteFileBytes(filepath.Join(dir, "page"), page); err != nil {
			return err
		}
		writes = append(writes, time.Since(t).Seconds()*1e3)
	}
	m["atomicio.write_fsync_ms_p50"] = median(writes)
	return serr
}

// probeService runs the job mix in process, once durable and once volatile,
// so the service's own costs separate from HTTP and from durability.
func probeService(e *env, m layerMetrics) error {
	cfg, err := scenario.Build("quickstart", scenario.Overrides{Steps: e.sc.jobSteps,
		HetAmplitude: hetAmplitude, Seed: e.seed})
	if err != nil {
		return err
	}
	m["service.configkey_us"] = 1e6 * timeBest(5*e.sc.probeReps, func() {
		if _, kerr := service.ConfigKey(cfg); kerr != nil {
			err = kerr
		}
	})
	m["admission.estimate_cost_us"] = 1e6 * timeBest(50*e.sc.probeReps, func() { admission.EstimateCost(cfg, 1, 1) })
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp(e.tmp, "probe-svc-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	durable, err := serviceMix(e, dir)
	if err != nil {
		return err
	}
	volatile, err := serviceMix(e, "")
	if err != nil {
		return err
	}
	m["service.submit_ms_p50"] = median(durable.submitMS)
	m["service.submit_cached_ms_p50"] = median(durable.submitCachedMS)
	m["service.queue_wait_ms_p50"] = median(durable.queueMS)
	m["service.run_ms_p50.durable"] = median(durable.runMS)
	m["service.run_ms_p50.volatile"] = median(volatile.runMS)
	m["service.result_ms_p50"] = median(durable.resultMS)
	jobs := float64(e.sc.probeJobs)
	m["service.journal_events_per_job"] = float64(durable.metrics.JournalEvents) / jobs
	m["service.checkpoints_per_job"] = float64(durable.metrics.CheckpointsSaved) / jobs
	m["service.cache_hit_share"] = float64(durable.metrics.CacheHits) / jobs
	return nil
}

// mixTimes is what one in-process job mix measured.
type mixTimes struct {
	submitMS, submitCachedMS, queueMS, runMS, resultMS []float64
	metrics                                            service.Metrics
}

// serviceMix runs probeJobs jobs of the seed's mix through service.Open with
// one closed-loop client; dataDir "" is the volatile service.
func serviceMix(e *env, dataDir string) (*mixTimes, error) {
	svc, err := service.Open(service.Options{DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	plan := planJobs(e.seed, e.sc.probeJobs, e.sc.repeatEvery)
	var mt mixTimes
	var mu sync.Mutex
	var firstErr error
	closedLoop(plan, func(i int) {
		if err := serviceJob(svc, plan[i], e.sc.jobSteps, &mt, &mu); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("job %d: %w", i, err)
			}
			mu.Unlock()
		}
	})
	mt.metrics = svc.Metrics()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := svc.Drain(ctx); err != nil && firstErr == nil {
		firstErr = err
	}
	return &mt, firstErr
}

func serviceJob(svc *service.Service, jp jobPlan, steps int, mt *mixTimes, mu *sync.Mutex) error {
	o := scenario.Overrides{Steps: steps, HetAmplitude: hetAmplitude, Seed: jp.seed}
	cfg, err := scenario.Build("quickstart", o)
	if err != nil {
		return err
	}
	t0 := time.Now()
	id, err := svc.Submit(service.Request{Config: cfg,
		Spec: &service.JobSpec{Scenario: "quickstart", Overrides: o}})
	submitMS := time.Since(t0).Seconds() * 1e3
	if err != nil {
		return err
	}
	st, err := svc.Wait(context.Background(), id)
	if err != nil {
		return err
	}
	if st.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
	}
	t1 := time.Now()
	res, err := svc.Result(id)
	resultMS := time.Since(t1).Seconds() * 1e3
	if err != nil {
		return err
	}
	if len(res.Traces) == 0 {
		return fmt.Errorf("job %s has no traces", id)
	}
	mu.Lock()
	defer mu.Unlock()
	mt.resultMS = append(mt.resultMS, resultMS)
	if jp.repeatOf >= 0 {
		mt.submitCachedMS = append(mt.submitCachedMS, submitMS)
		return nil
	}
	mt.submitMS = append(mt.submitMS, submitMS)
	mt.queueMS = append(mt.queueMS, st.Started.Sub(st.Submitted).Seconds()*1e3)
	mt.runMS = append(mt.runMS, st.Finished.Sub(st.Started).Seconds()*1e3)
	return nil
}

// probeQuaked runs the job mix over HTTP for the per-call latencies, with
// enough cache misses that the job latency's p90 has ten samples beyond it.
func probeQuaked(e *env, m layerMetrics) error {
	r, err := runJobMix(e, e.sc.probeHTTPJobs)
	if err != nil {
		return err
	}
	if r.failed > 0 {
		return fmt.Errorf("%d of %d jobs failed: %v", r.failed, r.attempted, r.errs)
	}
	for name, v := range r.layer {
		if name == "quaked.polls_per_job" || name == "quaked.result_bytes" {
			m[name] = mean(v)
		} else {
			m[name] = median(v)
		}
	}
	m["quaked.job_latency_ms_p90"] = percentile(r.latMS, 0.9)
	return nil
}

// probeEnsemble runs a short campaign over HTTP and times the aggregation
// primitives directly on a campaign-sized surface field.
func probeEnsemble(e *env, m layerMetrics) error {
	r, err := runCampaign(e, e.sc.probeMembers)
	if err != nil {
		return err
	}
	if r.failed > 0 {
		return fmt.Errorf("%d of %d members failed: %v", r.failed, r.attempted, r.errs)
	}
	for name, v := range r.layer {
		m[name] = v[0]
	}

	const nx, ny, members = 64, 62, 16
	fields := make([][]float64, members)
	for k := range fields {
		fields[k] = make([]float64, nx*ny)
		for i := range fields[k] {
			fields[k][i] = 0.01 * float64((i*31+k*17)%97)
		}
	}
	var ferr error
	foldS := timeBest(5*e.sc.probeReps, func() {
		fold := seismo.NewOrderedFold(seismo.NewFieldStats(nx, ny, []float64{0.05, 0.1, 0.2, 0.5}))
		for k := range fields {
			if err := fold.Add(k, fields[k]); err != nil {
				ferr = err
			}
		}
	})
	m["seismo.fold_us_per_member"] = foldS * 1e6 / members
	m["seismo.percentile_ms"] = 1e3 * timeBest(5*e.sc.probeReps, func() { seismo.PercentileField(fields, 0.84) })
	return ferr
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
