package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"swquake/internal/checkpoint"
	"swquake/internal/core"
	"swquake/internal/grid"
	"swquake/internal/scenario"
	"swquake/internal/seismo"
)

// env is what one repetition runs in: the scale, the seed, the run's
// temporary directory, the daemon binary built into it, and the trace
// context (a nil tracer for the untraced pass).
type env struct {
	sc     scale
	seed   int64
	tmp    string // temporary directory, removed when the run ends
	quaked string // path of the built daemon ("" when the run drives none)
	tr     *tracer
	parent int // span the repetition's spans hang under
	op     int // operation id of the repetition
}

// repResult is what one repetition measured.
type repResult struct {
	setupS float64   // set-up before the first unit of work
	points float64   // grid-point updates computed in the timed section
	wallS  float64   // wall time of the timed section
	latMS  []float64 // latency of each operation (step, job or member)
	rssMB  float64   // peak RSS of the daemon child; 0 = this process

	attempted, failed int
	errs              []string
	// digest identifies the outputs; every repetition of a run must agree.
	digest string
	// stages is the in-program stage clock of the solver runs, seconds by
	// stage name (from Result.Stages or the job manifests).
	stages map[string]float64
	// layer carries samples for the per-layer metrics a workload function
	// can measure as a side effect (used by the probes).
	layer map[string][]float64
}

func (r *repResult) fail(format string, a ...any) {
	r.failed++
	r.errs = append(r.errs, fmt.Sprintf(format, a...))
}

func (r *repResult) addStages(res *core.Result) {
	if r.stages == nil {
		r.stages = map[string]float64{}
	}
	for _, st := range res.Stages.Report().Stages {
		r.stages[st.Name] += st.Seconds
	}
}

// hashTrace feeds one station's name and float bit patterns to the digest
// and reports whether any sample is non-zero.
func hashTrace(h hash.Hash, name string, u, v, w []float32) (moved bool) {
	h.Write([]byte(name))
	var buf [4]byte
	for _, comp := range [][]float32{u, v, w} {
		for _, x := range comp {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
			h.Write(buf[:])
			moved = moved || x != 0
		}
	}
	return moved
}

// resultDigest is the SHA-256 over the float bit patterns of the station
// traces (sorted by station name, because parallel runs record in rank
// order) and the surface PGV field. Traces that never left zero would make
// the digest vacuous; they get a marker no golden digest equals.
func resultDigest(res *core.Result) string {
	h := sha256.New()
	traces := append([]*seismo.Trace(nil), res.Recorder.Traces...)
	sort.Slice(traces, func(a, b int) bool { return traces[a].Station.Name < traces[b].Station.Name })
	moved := false
	for _, t := range traces {
		if hashTrace(h, t.Station.Name, t.U, t.V, t.W) {
			moved = true
		}
	}
	if res.PGV != nil {
		var buf [8]byte
		for _, x := range res.PGV.PGV {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	if !moved {
		return "all-zero traces"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stepTimer turns observer events into per-step latencies and, when traced,
// one span per step under the run's span.
type stepTimer struct {
	e        *env
	runSpan  int
	last     time.Time
	firstAt  time.Time     // wall clock at the first event
	firstRun time.Duration // the engine's own stepping time at the first event
	latMS    []float64
}

func (st *stepTimer) observe(ev core.StepEvent) {
	now := time.Now()
	if st.firstAt.IsZero() {
		// the engine dates its own first step: what precedes it inside the
		// call (restore, rank set-up) is not a step
		st.firstAt, st.firstRun = now, ev.Wall
		st.last = now.Add(-ev.Wall)
	}
	st.latMS = append(st.latMS, now.Sub(st.last).Seconds()*1e3)
	st.e.tr.add("core.step", st.runSpan, st.e.op, st.last, now)
	st.last = now
}

// solveMode selects how a built configuration is executed.
type solveMode int

const (
	serial solveMode = iota
	ranks            // RunParallel 2x1 with overlapped halo exchange
	tiles            // intra-rank tile pool sized from GOMAXPROCS
)

// solved is one timed scenario.Build -> core.New -> Run.
type solved struct {
	res    *core.Result
	dims   grid.Dims
	setupS float64
	runS   float64
	latMS  []float64
}

// solve builds, sets up and runs one scenario. mutate, when non-nil, edits
// the built configuration (checkpointing, restart) before core.New.
func solve(e *env, name string, o scenario.Overrides, mode solveMode, mutate func(*core.Config)) (*solved, error) {
	t0 := time.Now()
	sp := e.tr.begin("scenario.Build", e.parent, e.op)
	cfg, err := scenario.Build(name, o)
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if mutate != nil {
		mutate(&cfg)
	}
	// The scenarios' stations sit on the free surface, which the wavefront
	// of a run this short has not reached: their traces would be all zero
	// and the digest would check nothing. One more receiver, two cells from
	// the sub-source that radiates first, records motion from step one on.
	src := cfg.Sources[0]
	for _, s := range cfg.Sources[1:] {
		if math.Abs(s.S.MomentRate(0)) > math.Abs(src.S.MomentRate(0)) {
			src = s
		}
	}
	cfg.Stations = append(cfg.Stations[:len(cfg.Stations):len(cfg.Stations)],
		seismo.Station{Name: "near-source", I: src.I + 2, J: src.J, K: src.K})
	st := &stepTimer{e: e}
	cfg.Observer = st.observe
	out := &solved{dims: cfg.Dims}

	if mode == ranks {
		// RunParallel builds its simulators itself: set-up is the part of
		// the call before the engine starts stepping, which the first
		// observer event dates (its Wall is the stepping time so far).
		cfg.Overlap = true
		st.runSpan = e.tr.begin("core.RunParallel", e.parent, e.op)
		res, err := core.RunParallel(cfg, 2, 1)
		end := time.Now()
		e.tr.end(st.runSpan)
		if err != nil {
			return nil, err
		}
		stepStart := st.firstAt.Add(-st.firstRun)
		out.res, out.latMS = res, st.latMS
		out.setupS = stepStart.Sub(t0).Seconds()
		out.runS = end.Sub(stepStart).Seconds()
		return out, nil
	}

	if mode == tiles {
		cfg.Tiles = core.AutoTiles
	}
	sp = e.tr.begin("core.New", e.parent, e.op)
	sim, err := core.New(cfg)
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	out.setupS = time.Since(t0).Seconds()

	st.runSpan = e.tr.begin("core.Run", e.parent, e.op)
	t1 := time.Now()
	res, err := sim.Run()
	out.runS = time.Since(t1).Seconds()
	e.tr.end(st.runSpan)
	if err != nil {
		return nil, err
	}
	out.res, out.latMS = res, st.latMS
	return out, nil
}

// solveRep is the common shape of the single-run solver repetitions.
func solveRep(e *env, name string, o scenario.Overrides, mode solveMode) (*repResult, error) {
	s, err := solve(e, name, o, mode, nil)
	if err != nil {
		return nil, err
	}
	r := &repResult{setupS: s.setupS, wallS: s.runS, latMS: s.latMS, attempted: 1}
	r.points = float64(s.dims.Points()) * float64(s.res.Steps)
	r.digest = resultDigest(s.res)
	r.addStages(s.res)
	return r, nil
}

func solveNonlinearLarge(e *env) (*repResult, error) {
	return solveRep(e, "tangshan", e.sc.largeOverrides(e.sc.largeSteps), serial)
}

func solveLinearSmall(e *env) (*repResult, error) {
	return solveRep(e, "quickstart", scenario.Overrides{Steps: e.sc.smallSteps}, serial)
}

// checkpointRestart runs ckptSteps steps dumping every ckptInterval, then a
// second simulation that restarts from the middle dump and runs to the same
// final step: the write-beside-read use of the checkpoint layer. The
// restarted outputs must equal the uninterrupted ones bit for bit.
func checkpointRestart(e *env) (*repResult, error) {
	dir, err := os.MkdirTemp(e.tmp, "ckpt-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o := e.sc.ckptOverrides(e.sc.ckptSteps)

	first, err := solve(e, "tangshan", o, serial, func(c *core.Config) {
		c.Checkpoint = &checkpoint.Controller{Dir: dir, Interval: e.sc.ckptInterval, Keep: 0}
	})
	if err != nil {
		return nil, err
	}
	r := &repResult{attempted: 2, digest: resultDigest(first.res)}
	if want := e.sc.ckptSteps / e.sc.ckptInterval; len(first.res.Checkpoints) != want {
		r.fail("first run wrote %d checkpoints, want %d", len(first.res.Checkpoints), want)
	}
	r.addStages(first.res)
	// the restarted run is a new process in real use: the first run's arrays
	// are gone before it allocates its own
	first.res = nil
	releaseMemory()

	mid := e.sc.ckptSteps / 2
	dump := filepath.Join(dir, fmt.Sprintf("ckpt-%08d.swq", mid))
	second, err := solve(e, "tangshan", o, serial, func(c *core.Config) {
		c.Checkpoint = &checkpoint.Controller{Dir: dir, Interval: e.sc.ckptInterval, Keep: 0}
		c.RestartFrom = dump
	})
	if err != nil {
		return nil, err
	}
	if d := resultDigest(second.res); d != r.digest {
		r.fail("restarted run digest %.12s differs from uninterrupted %.12s", d, r.digest)
	}
	r.addStages(second.res)

	r.setupS = (first.setupS + second.setupS) / 2
	r.wallS = first.runS + second.runS
	r.points = float64(e.sc.ckpt.Points()) * float64(e.sc.ckptSteps+e.sc.ckptSteps-mid)
	r.latMS = append(first.latMS, second.latMS...)
	return r, nil
}
