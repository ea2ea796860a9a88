// Package ensemble is the campaign orchestrator: it turns one scenario
// plus sweep axes into a batch of related simulation jobs, drives them
// through the internal/service job service with bounded concurrency, and
// folds the members' surface PGV fields into streaming hazard statistics
// as they complete — mean and standard-deviation maps, per-threshold
// exceedance probabilities, and percentile intensity maps.
//
// A single deterministic run is the weakest form of hazard; production
// systems run ensembles of stochastic velocity realizations and parameter
// variations and report statistics. The campaign subsystem makes that a
// first-class workload: CampaignSpec expands deterministically into member
// JobSpecs (so a journaled spec is enough to rebuild the whole campaign),
// the scheduler inherits the job service's durability/retry/cancellation
// semantics, and the aggregate's fold order is pinned to the member index
// (seismo.OrderedFold), so the final statistics are bit-identical no
// matter in which order the members happen to finish — or whether the
// daemon restarted halfway through.
package ensemble

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"swquake/internal/scenario"
	"swquake/internal/service"
)

// Sentinel errors of the campaign API.
var (
	// ErrUnknownCampaign is returned for IDs the manager has never issued.
	ErrUnknownCampaign = errors.New("ensemble: unknown campaign")
	// ErrClosed is returned by Create after Drain has begun.
	ErrClosed = errors.New("ensemble: draining, not accepting campaigns")
)

// State is a campaign's lifecycle state.
type State string

const (
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether a campaign in this state will never change.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// SeedAxis sweeps stochastic velocity-heterogeneity realizations: members
// get seeds Base, Base+1, ..., Base+Count-1 with the given perturbation
// amplitude (scenario.Overrides het fields, applied via
// model.Heterogeneous).
type SeedAxis struct {
	// Base is the first seed of the sweep.
	Base int64 `json:"base,omitempty"`
	// Count is the number of seed realizations (0 = no seed axis).
	Count int `json:"count,omitempty"`
	// HetAmplitude is the RMS fractional velocity perturbation for every
	// realization (falls back to the campaign base overrides' value).
	HetAmplitude float64 `json:"het_amplitude,omitempty"`
	// HetCorrLen is the correlation length in meters (0 = scenario default).
	HetCorrLen float64 `json:"het_corr_len,omitempty"`
}

// CampaignSpec declares an ensemble campaign: a base scenario plus axes
// that expand deterministically into member jobs. The expansion order —
// parameter variations outer, seeds inner — defines the member index,
// which in turn fixes the aggregation order.
type CampaignSpec struct {
	// Name is a human label for the campaign (optional).
	Name string `json:"name,omitempty"`
	// Scenario is the base scenario every member runs (scenario.Names).
	Scenario string `json:"scenario"`
	// Base overrides apply to every member.
	Base scenario.Overrides `json:"base,omitempty"`
	// Variations is the parameter-grid axis: each entry is overlaid on
	// Base (non-zero fields win) to form one variation. Empty means one
	// variation, the base itself. Variations may not change the surface
	// grid (nx/ny): every member must produce the same map shape.
	Variations []scenario.Overrides `json:"variations,omitempty"`
	// Seeds is the stochastic-realization axis, crossed with Variations.
	Seeds SeedAxis `json:"seeds,omitempty"`

	// MX, MY select the simulated-MPI layout for every member job.
	MX int `json:"mx,omitempty"`
	MY int `json:"my,omitempty"`
	// TimeoutS is the per-member job deadline in seconds (0 = service
	// default).
	TimeoutS float64 `json:"timeout_s,omitempty"`
	// MaxConcurrent bounds how many members run at once (0 = 2). The job
	// service's own queue and worker pool still apply.
	MaxConcurrent int `json:"max_concurrent,omitempty"`

	// Thresholds are the PGV levels (m/s) of the exceedance-probability
	// maps (empty = DefaultThresholds).
	Thresholds []float64 `json:"thresholds,omitempty"`
	// Percentiles are the per-cell quantiles reported in the aggregate
	// (empty = DefaultPercentiles).
	Percentiles []float64 `json:"percentiles,omitempty"`
}

// DefaultThresholds are the exceedance PGV levels (m/s) used when a spec
// names none — roughly Chinese intensities VI through IX.
var DefaultThresholds = []float64{0.05, 0.1, 0.2, 0.5}

// DefaultPercentiles are the aggregate quantiles used when a spec names
// none: the median and the one-sigma (84th percentile) hazard maps.
var DefaultPercentiles = []float64{0.5, 0.84}

// MaxMembers caps a campaign's expansion.
const MaxMembers = 1024

// Members reports how many member jobs the spec expands into.
func (cs CampaignSpec) Members() int {
	return max(len(cs.Variations), 1) * max(cs.Seeds.Count, 1)
}

// normalized validates the spec and fills defaults, returning the
// canonical form Create journals (so a replayed campaign sees exactly the
// defaults the original run used).
func (cs CampaignSpec) normalized() (CampaignSpec, error) {
	if cs.Scenario == "" {
		return cs, fmt.Errorf("ensemble: campaign names no scenario")
	}
	n := cs.Members()
	if n > MaxMembers {
		return cs, fmt.Errorf("ensemble: campaign expands to %d members (max %d)", n, MaxMembers)
	}
	if cs.Seeds.Count < 0 {
		return cs, fmt.Errorf("ensemble: negative seed count %d", cs.Seeds.Count)
	}
	if cs.Seeds.Count > 1 && cs.Seeds.HetAmplitude <= 0 && cs.Base.HetAmplitude <= 0 {
		return cs, fmt.Errorf("ensemble: a %d-seed sweep needs het_amplitude > 0 — otherwise every member is the same simulation", cs.Seeds.Count)
	}
	for i, v := range cs.Variations {
		if v.Nx != 0 || v.Ny != 0 {
			return cs, fmt.Errorf("ensemble: variation %d changes the surface grid (nx/ny); member maps must share one shape", i)
		}
		if v.Seed != 0 || v.HetAmplitude != 0 || v.HetCorrLen != 0 {
			return cs, fmt.Errorf("ensemble: variation %d sets seed/heterogeneity fields; use the seeds axis", i)
		}
	}
	for i, p := range cs.Percentiles {
		if p < 0 || p > 1 {
			return cs, fmt.Errorf("ensemble: percentile %d = %g outside [0, 1]", i, p)
		}
	}
	if cs.MaxConcurrent <= 0 {
		cs.MaxConcurrent = 2
	}
	if len(cs.Thresholds) == 0 {
		cs.Thresholds = append([]float64(nil), DefaultThresholds...)
	}
	if len(cs.Percentiles) == 0 {
		cs.Percentiles = append([]float64(nil), DefaultPercentiles...)
	}
	// every member spec must actually build: catch bad scenario names and
	// invalid override combinations at Create time, not mid-campaign
	for i, sp := range cs.Expand() {
		if _, err := scenario.Build(sp.Scenario, sp.Overrides); err != nil {
			return cs, fmt.Errorf("ensemble: member %d does not build: %w", i, err)
		}
	}
	return cs, nil
}

// Expand returns the member job specs in canonical member-index order:
// parameter variations outer, heterogeneity seeds inner. The expansion is
// deterministic, so a journaled CampaignSpec is the complete durable form
// of a campaign.
func (cs CampaignSpec) Expand() []service.JobSpec {
	variations := cs.Variations
	if len(variations) == 0 {
		variations = []scenario.Overrides{{}}
	}
	seeds := max(cs.Seeds.Count, 1)
	out := make([]service.JobSpec, 0, len(variations)*seeds)
	for _, v := range variations {
		o := overlay(cs.Base, v)
		for s := 0; s < seeds; s++ {
			mo := o
			if cs.Seeds.Count > 0 {
				mo.Seed = cs.Seeds.Base + int64(s)
				if cs.Seeds.HetAmplitude > 0 {
					mo.HetAmplitude = cs.Seeds.HetAmplitude
				}
				if cs.Seeds.HetCorrLen > 0 {
					mo.HetCorrLen = cs.Seeds.HetCorrLen
				}
			}
			out = append(out, service.JobSpec{
				Scenario:  cs.Scenario,
				Overrides: mo,
				MX:        cs.MX,
				MY:        cs.MY,
				TimeoutS:  cs.TimeoutS,
			})
		}
	}
	return out
}

// overlay applies a variation on top of base overrides: non-zero fields
// of v win, zero fields keep the base.
func overlay(base, v scenario.Overrides) scenario.Overrides {
	o, over := reflect.ValueOf(&base).Elem(), reflect.ValueOf(v)
	for i := range over.NumField() {
		if f := over.Field(i); !f.IsZero() {
			o.Field(i).Set(f)
		}
	}
	return base
}

// MemberStatus is one member's place in the campaign.
type MemberStatus struct {
	Index int `json:"index"`
	// Job is the job-service ID once the member has been submitted.
	Job string `json:"job,omitempty"`
	// State mirrors the job state; "pending" before submission, "skipped"
	// for members dropped from the aggregate after a permanent failure.
	State string `json:"state"`
}

// Status is a point-in-time snapshot of a campaign.
type Status struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	Scenario string `json:"scenario"`
	State    State  `json:"state"`

	Members int `json:"members"`
	Pending int `json:"pending"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	// Folded counts members already in the aggregate (<= Done: folding
	// waits for the lowest unfinished index so the merge order is fixed).
	Folded int `json:"folded"`

	// Recovered marks a campaign resumed from the journal after a restart.
	Recovered bool `json:"recovered,omitempty"`

	MemberJobs []MemberStatus `json:"member_jobs,omitempty"`

	Created  time.Time `json:"created"`
	Finished time.Time `json:"finished"`
	Error    string    `json:"error,omitempty"`
}
