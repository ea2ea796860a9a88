// Package manifest summarizes completed runs as machine-readable JSON —
// the record a batch system archives next to the outputs, and the result
// payload the job service returns over HTTP. Keeping one shape for both
// makes API results interchangeable with batch-run manifests on disk.
package manifest

import (
	"encoding/json"
	"io"
	"os"

	"swquake/internal/atomicio"
	"swquake/internal/compress"
	"swquake/internal/core"
	"swquake/internal/grid"
	"swquake/internal/seismo"
	"swquake/internal/telemetry"
)

// RunManifest is a machine-readable summary of a completed simulation.
type RunManifest struct {
	Dims       grid.Dims `json:"dims"`
	Dx         float64   `json:"dx_m"`
	Dt         float64   `json:"dt_s"`
	Steps      int       `json:"steps"`
	Nonlinear  bool      `json:"nonlinear"`
	Compressed bool      `json:"compressed"`

	Stations []StationSummary `json:"stations"`

	SurfacePGV       float64 `json:"surface_pgv_m_s,omitempty"`
	SurfaceIntensity float64 `json:"surface_intensity,omitempty"`

	YieldedPointSteps int64   `json:"yielded_point_steps"`
	Flops             int64   `json:"flops"`
	SustainedGflops   float64 `json:"sustained_gflops"`
	// Workers is how many workers walked the run's strips, ranks × tiles
	// (core.Perf.Workers): the rates above depend on it.
	Workers int `json:"workers"`

	// Stages is the per-stage wall-time breakdown of the run (the Fig. 7
	// kernel accounting): name, observation count, total/min/max seconds
	// and fixed-bucket histogram per pipeline stage.
	Stages []telemetry.StageStats `json:"stages,omitempty"`

	Checkpoints []string `json:"checkpoints,omitempty"`
	// CheckpointWriteSeconds is the time the checkpoint lane spent writing
	// those dumps beside the solver; the "checkpoint" stage holds only the
	// snapshots and the waits for a previous dump.
	CheckpointWriteSeconds float64 `json:"checkpoint_write_seconds,omitempty"`
}

// StationSummary is one station's headline numbers.
type StationSummary struct {
	Name      string  `json:"name"`
	I         int     `json:"i"`
	J         int     `json:"j"`
	PGV       float64 `json:"pgv_m_s"`
	Intensity float64 `json:"intensity"`
}

// New summarizes a run result against its configuration.
func New(cfg core.Config, res *core.Result) RunManifest {
	m := RunManifest{
		Dims:              cfg.Dims,
		Dx:                cfg.Dx,
		Dt:                res.Dt,
		Steps:             res.Steps,
		Nonlinear:         cfg.Nonlinear,
		Compressed:        cfg.Compression != compress.Off,
		YieldedPointSteps: res.YieldedPointSteps,
		Flops:             res.Perf.Flops(),
		SustainedGflops:   res.Perf.Gflops(),
		Workers:           res.Perf.Workers,
		Stages:            res.Stages.Report().Stages,
	}
	for _, tr := range res.Recorder.Traces {
		pgv := tr.PeakVelocity()
		m.Stations = append(m.Stations, StationSummary{
			Name: tr.Station.Name, I: tr.Station.I, J: tr.Station.J,
			PGV: pgv, Intensity: seismo.Intensity(pgv),
		})
	}
	if res.PGV != nil {
		m.SurfacePGV = res.PGV.Max()
		m.SurfaceIntensity = seismo.Intensity(m.SurfacePGV)
	}
	for _, ck := range res.Checkpoints {
		m.Checkpoints = append(m.Checkpoints, ck.Path)
	}
	m.CheckpointWriteSeconds = res.CheckpointWriteSeconds
	return m
}

// Write emits the manifest as indented JSON.
func (m RunManifest) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Save writes the manifest to a file atomically: archived manifests are
// either the previous complete version or the new one, never torn.
func (m RunManifest) Save(path string) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return m.Write(w)
	})
}

// Load reads a manifest back.
func Load(path string) (RunManifest, error) {
	var m RunManifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	err = json.Unmarshal(data, &m)
	return m, err
}
