package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"swquake/internal/core"
	"swquake/internal/grid"
	"swquake/internal/seismo"
)

// keyPayload is the canonical, deterministic projection of a core.Config
// that identifies the scenario being solved. Interface-valued parts (the
// velocity model, source time functions) are rendered as their dynamic
// type name plus their JSON encoding: every implementation in this module
// is plain data, JSON follows interior pointers (a Basin's background
// model, say) instead of printing addresses, and encoding/json emits maps
// with sorted keys, so the rendering is stable. Execution details that do
// not change the solution a job returns — the checkpoint controller and
// the progress observer — are deliberately excluded; RestartFrom is
// included because a resumed run records traces only from the restart
// point onward.
type keyPayload struct {
	Dims        grid.Dims              `json:"dims"`
	Dx          float64                `json:"dx"`
	Dt          float64                `json:"dt"`
	Steps       int                    `json:"steps"`
	Model       string                 `json:"model"`
	Nonlinear   bool                   `json:"nonlinear"`
	Plasticity  core.PlasticityConfig  `json:"plasticity"`
	Attenuation core.AttenuationConfig `json:"attenuation"`
	Compression string                 `json:"compression"`
	Sources     []string               `json:"sources"`
	Stations    []seismo.Station       `json:"stations"`
	SpongeWidth int                    `json:"sponge_width"`
	RecordPGV   bool                   `json:"record_pgv"`
	SunwaySim   bool                   `json:"sunway_sim"`
	RestartFrom string                 `json:"restart_from"`
}

// ConfigKey returns the canonical hash of a configuration: the SHA-256 of
// the canonical JSON of the validated config. Two configs that describe
// the same simulation — including one written with defaults spelled out
// and one relying on Validate to fill them — hash identically, so the key
// is safe to use for result caching and for matching API results against
// batch-run manifests on disk.
func ConfigKey(cfg core.Config) (string, error) {
	// validate a copy so defaults (attenuation F0, lithostatic density)
	// are filled in and the hash is canonical
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	p := keyPayload{
		Dims:        cfg.Dims,
		Dx:          cfg.Dx,
		Dt:          cfg.Dt,
		Steps:       cfg.Steps,
		Model:       canonical(cfg.Model),
		Nonlinear:   cfg.Nonlinear,
		Plasticity:  cfg.Plasticity,
		Attenuation: cfg.Attenuation,
		Compression: cfg.Compression.String(),
		Stations:    cfg.Stations,
		SpongeWidth: cfg.SpongeWidth,
		RecordPGV:   cfg.RecordPGV,
		SunwaySim:   cfg.SunwaySim,
		RestartFrom: cfg.RestartFrom,
	}
	for _, src := range cfg.Sources {
		p.Sources = append(p.Sources, fmt.Sprintf("%d,%d,%d|%+v|%s", src.I, src.J, src.K, src.M, canonical(src.S)))
	}
	data, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// canonical renders an interface value as its dynamic type name plus its
// JSON encoding — address-free and deterministic for the plain-data model
// and source-time-function implementations of this module.
func canonical(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// non-JSON-able implementations degrade to fmt (still stable for
		// plain data, but may embed addresses behind interior pointers)
		return fmt.Sprintf("%T|!%+v", v, v)
	}
	return fmt.Sprintf("%T|%s", v, data)
}
